package sz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/fxrz-go/fxrz/internal/compress"
	"github.com/fxrz-go/fxrz/internal/grid"
)

// parWidths are the worker counts the bit-identity contract is proven at.
func parWidths() []int {
	ws := []int{2, 3}
	if n := runtime.NumCPU(); n > 3 {
		ws = append(ws, n)
	}
	return ws
}

// parShapes are single-slab fields of every rank, with odd and ragged
// extents: the worker budget reaches only their entropy stage, and blobs
// must not depend on it. Multi-slab shapes live in chunkedShapes.
var parShapes = [][]int{
	{1 << 14},      // 1D
	{8, 8},         // tiny 2D
	{40, 512},      // 2D
	{97, 300},      // 2D: odd extents
	{64, 130},      // 2D
	{16, 32, 32},   // 3D
	{5, 70, 33},    // 3D: ragged, ny >> nz
	{4, 4, 32, 32}, // 4D: generic path
}

// parField fills a field with the given character. Characters mirror the
// serial identity suite: smooth (mostly quantized), noisy (mixed), escape
// (NaN/Inf/huge forcing the raw path), constant.
func parField(shape []int, kind string) *grid.Field {
	f := grid.MustNew(kind, shape...)
	rng := rand.New(rand.NewSource(int64(len(f.Data))))
	for i := range f.Data {
		switch kind {
		case "smooth":
			f.Data[i] = float32(math.Sin(float64(i) / 17))
		case "noisy":
			f.Data[i] = rng.Float32()*2e4 - 1e4
		case "escape":
			switch i % 7 {
			case 0:
				f.Data[i] = float32(math.NaN())
			case 1:
				f.Data[i] = float32(math.Inf(1))
			case 2:
				f.Data[i] = float32(math.Inf(-1))
			case 3:
				f.Data[i] = 3e38
			case 4:
				f.Data[i] = float32(math.Copysign(0, -1))
			default:
				f.Data[i] = float32(i)
			}
		case "constant":
			f.Data[i] = 4.25
		}
	}
	return f
}

var parKinds = []string{"smooth", "noisy", "escape", "constant"}

// Parallel compression and decompression must be byte- and bit-identical to
// the serial path for every shape, data character and worker count.
func TestSZParallelIdentity(t *testing.T) {
	for _, shape := range parShapes {
		for _, kind := range parKinds {
			f := parField(shape, kind)
			for _, eb := range []float64{1e-6, 1e-3, 1.0} {
				serialBlob, err := compressSZ(f, eb, false, 1)
				if err != nil {
					t.Fatalf("%v/%s eb=%g: serial compress: %v", shape, kind, eb, err)
				}
				serialRec, err := decompressSZ(serialBlob, false, 1)
				if err != nil {
					t.Fatalf("%v/%s eb=%g: serial decompress: %v", shape, kind, eb, err)
				}
				for _, w := range parWidths() {
					parBlob, err := compressSZ(f, eb, false, w)
					if err != nil {
						t.Fatalf("%v/%s eb=%g w=%d: compress: %v", shape, kind, eb, w, err)
					}
					if !bytes.Equal(parBlob, serialBlob) {
						t.Fatalf("%v/%s eb=%g w=%d: parallel blob differs from serial", shape, kind, eb, w)
					}
					parRec, err := decompressSZ(serialBlob, false, w)
					if err != nil {
						t.Fatalf("%v/%s eb=%g w=%d: decompress: %v", shape, kind, eb, w, err)
					}
					if !bitsEqual(parRec.Data, serialRec.Data) {
						t.Fatalf("%v/%s eb=%g w=%d: parallel reconstruction differs from serial", shape, kind, eb, w)
					}
				}
			}
		}
	}
}

// bitsEqual compares float32 slices by bit pattern (NaN-safe).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// A raw pool holding fewer values than the stream escapes must fail
// identically at any worker count: the slab decoder's prescan rejects it
// before any slab runs.
func TestSZParallelRawExhaustedIdentity(t *testing.T) {
	f := parField([]int{48, 64, 64}, "escape")
	blob, err := compressSZ(f, 1e-3, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, payload, err := compress.ParseHeader(blob, compress.MagicSZ)
	if err != nil {
		t.Fatal(err)
	}
	_, rawPayload, nraw, err := splitSZSections(h.Dims, payload)
	if err != nil {
		t.Fatal(err)
	}
	if SlabRows(blob) == 0 || nraw == 0 {
		t.Fatalf("want a chunked blob with escapes (slab rows %d, %d escapes)", SlabRows(blob), nraw)
	}
	// Re-serialize the raw section without its last value.
	cut := bytes.Clone(blob[:len(blob)-len(rawPayload)-len(binary.AppendUvarint(nil, nraw))])
	cut = binary.AppendUvarint(cut, nraw-1)
	cut = append(cut, rawPayload[:4*(nraw-1)]...)
	_, serr := decompressSZ(cut, false, 1)
	if !errors.Is(serr, compress.ErrCorrupt) {
		t.Fatalf("short raw pool: got %v, want a corruption error", serr)
	}
	for _, w := range parWidths() {
		_, perr := decompressSZ(cut, false, w)
		if perr == nil || perr.Error() != serr.Error() {
			t.Fatalf("w=%d: error %v differs from serial %q", w, perr, serr)
		}
	}
}

// SZ2 routes only its entropy stage through the worker budget; blobs must
// still be byte-identical at every width.
func TestSZ2ParallelIdentity(t *testing.T) {
	f := parField([]int{32, 64, 64}, "smooth")
	serial := &V2{Workers: 1}
	want, err := serial.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	wantRec, err := serial.Decompress(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range parWidths() {
		par := &V2{Workers: w}
		got, err := par.Compress(f, 1e-3)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("w=%d: parallel sz2 blob differs from serial", w)
		}
		rec, err := par.Decompress(got)
		if err != nil {
			t.Fatalf("w=%d: decompress: %v", w, err)
		}
		if !bitsEqual(rec.Data, wantRec.Data) {
			t.Fatalf("w=%d: sz2 reconstruction differs", w)
		}
	}
}

// A single parallel Compressor value shared across goroutines must be safe:
// the pooled scratch is per-acquisition, never per-codec. Run under -race.
func TestSZSharedCompressorConcurrent(t *testing.T) {
	f := parField([]int{16, 32, 32}, "noisy")
	c := &Compressor{Workers: 2}
	want, err := c.Compress(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				blob, err := c.Compress(f, 1e-3)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(blob, want) {
					errs[g] = errMismatch
					return
				}
				if _, err := c.Decompress(blob); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

var errMismatch = errMismatchType{}

type errMismatchType struct{}

func (errMismatchType) Error() string { return "concurrent blob differs from reference" }
