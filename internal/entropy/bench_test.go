package entropy

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func benchData() []byte {
	// Quantization-code-like bytes: long runs with sparse disturbances.
	rng := rand.New(rand.NewSource(1))
	data := bytes.Repeat([]byte{0, 0x80}, 1<<18)
	for i := 0; i < len(data)/100; i++ {
		data[rng.Intn(len(data))] = byte(rng.Intn(256))
	}
	return data
}

func BenchmarkLZCompress(b *testing.B) {
	data := benchData()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		LZCompress(data)
	}
}

func BenchmarkLZDecompress(b *testing.B) {
	data := benchData()
	blob := LZCompress(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LZDecompress(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuffmanEncode(b *testing.B) {
	data := benchData()
	syms := make([]uint32, len(data))
	for i, v := range data {
		syms[i] = uint32(v)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HuffmanEncode(syms, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelHuffmanDecode compares the bit-at-a-time canonical walk
// against the first-level-table decoder on a quantization-code-like stream.
// Recorded in BENCH_kernels.json as huffman_decode.
func BenchmarkKernelHuffmanDecode(b *testing.B) {
	data := benchData()
	syms := make([]uint32, len(data))
	for i, v := range data {
		syms[i] = uint32(v)
	}
	blob, err := HuffmanEncode(syms, 256)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name     string
		useTable bool
	}{{"bitwise", false}, {"table", true}} {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := huffmanDecode(blob, v.useTable); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(syms)), "ns/elem")
		})
	}
}

// BenchmarkChunkedDecode measures what the chunked container buys on decode:
// a 2M-symbol quantization-code-like stream decoded through the whole-stream
// serial path versus HuffmanDecodeChunked at worker widths 1, 2 and 4.
// Recorded in BENCH_entropy.json (`make bench-entropy`) in ns/elem: the
// serial/w4 pair carries a 2x floor on >= 4-core machines, and the w1 pair
// bounds the container's bookkeeping overhead on any machine. The blob-overhead-frac
// metric is the chunk table's size cost over the legacy container (budget:
// <= 1%, pinned absolutely by TestChunkedOverhead).
func BenchmarkChunkedDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	syms := make([]uint32, 1<<21)
	for i := range syms {
		if i%2 == 0 {
			syms[i] = 1 << 15 // sz's "predicted exactly" center code
		} else {
			syms[i] = uint32(1<<15 + rng.Intn(64) - 32)
		}
	}
	for i := 0; i < len(syms)/100; i++ {
		syms[rng.Intn(len(syms))] = uint32(rng.Intn(1 << 16))
	}
	legacy, err := HuffmanEncode(syms, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	chunked, err := HuffmanEncodeChunked(syms, 1<<16, 1)
	if err != nil {
		b.Fatal(err)
	}
	overhead := float64(len(chunked)-len(legacy)) / float64(len(legacy))
	b.Run("huffman/serial", func(b *testing.B) {
		b.SetBytes(int64(len(syms)))
		b.ReportMetric(overhead, "blob-overhead-frac")
		for i := 0; i < b.N; i++ {
			if _, err := HuffmanDecode(legacy); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(syms)), "ns/elem")
	})
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("huffman/w%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(syms)))
			b.ReportMetric(overhead, "blob-overhead-frac")
			for i := 0; i < b.N; i++ {
				if _, err := HuffmanDecodeChunked(chunked, w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(syms)), "ns/elem")
		})
	}
}

func BenchmarkRangeCoder(b *testing.B) {
	n := 1 << 18
	b.SetBytes(int64(n / 8))
	for i := 0; i < b.N; i++ {
		enc := NewRangeEncoder()
		m := NewBitModels(4)
		for j := 0; j < n; j++ {
			enc.EncodeBit(&m[j&3], uint(j>>5)&1)
		}
		enc.Finish()
	}
}
