// Intra-field parallel codec benchmarks: serial versus parallel pack and
// unpack for the two codecs with intra-field fan-out (sz: wavefront Lorenzo +
// sharded Huffman; zfp: chunked block coder). The recorded baseline lives in
// BENCH_compress.json under these benchmarks' names and ns/elem metric, and
// cmd/benchguard gates it: width 4 within 1.5x of width 1 anywhere, and the
// 1.5x pack floor only on >= 4-core machines (min_cores 4).
package fxrz_test

import (
	"fmt"
	"sync"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/datagen"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// compressBenchWidths are the worker budgets the baseline records: serial,
// half fan-out, and the ISSUE's 1.5×-floor width.
var compressBenchWidths = []int{1, 2, 4}

var (
	compressBenchField     *grid.Field
	compressBenchFieldOnce sync.Once
)

// compressBenchInput is the ≥256³ field the speedup floor is measured on.
func compressBenchInput(b *testing.B) *grid.Field {
	b.Helper()
	compressBenchFieldOnce.Do(func() {
		f, err := datagen.NyxField("baryon_density", 1, 1, 256)
		if err != nil {
			b.Fatalf("generating bench field: %v", err)
		}
		compressBenchField = f
	})
	if compressBenchField == nil {
		b.Skip("bench field generation failed earlier")
	}
	return compressBenchField
}

// compressBenchKnob returns the codec's knob for the bench field: a 1e-3
// relative bound for error-bounded codecs.
func compressBenchKnob(f *grid.Field) float64 { return 1e-3 * f.ValueRange() }

func BenchmarkCompressPack(b *testing.B) {
	f := compressBenchInput(b)
	knob := compressBenchKnob(f)
	for _, name := range []string{"sz", "zfp"} {
		for _, w := range compressBenchWidths {
			b.Run(fmt.Sprintf("%s/w%d", name, w), func(b *testing.B) {
				base, err := fxrz.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				c := fxrz.WithParallelism(base, w)
				b.SetBytes(int64(f.Bytes()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Compress(f, knob); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.Size()), "ns/elem")
			})
		}
	}
}

func BenchmarkCompressUnpack(b *testing.B) {
	f := compressBenchInput(b)
	knob := compressBenchKnob(f)
	for _, name := range []string{"sz", "zfp"} {
		base, err := fxrz.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		blob, err := base.Compress(f, knob)
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range compressBenchWidths {
			b.Run(fmt.Sprintf("%s/w%d", name, w), func(b *testing.B) {
				c := fxrz.WithParallelism(base, w)
				b.SetBytes(int64(f.Bytes()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Decompress(blob); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.Size()), "ns/elem")
			})
		}
	}
}
