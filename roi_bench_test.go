package fxrz_test

import (
	"fmt"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/datagen"
)

// BenchmarkRegionDecode measures what the region index buys: decoding a
// centered 32³ subvolume (1/8 of the volume) out of an indexed 64³ stream
// versus decoding the whole field through the same entry point. The full/
// eighth pair is measured within one run, so the ratio gates on any machine;
// BENCH_roi.json records both legs' ns/op and the idx-frac metric, and
// `make bench-roi` fails if full/eighth drops below its floor or the index
// outgrows 1% of the blob. Both pairs carry floors: zfp seeks its own
// 4³ blocks, and sz's chunked entropy container now seeks too — a region
// decode entropy-decodes only the chunks covering its slabs and skips the
// Lorenzo arithmetic outside the region's prefix box.
func BenchmarkRegionDecode(b *testing.B) {
	f, err := datagen.NyxField("baryon_density", 1, 2, 64)
	if err != nil {
		b.Fatal(err)
	}
	knob := 1e-3 * f.ValueRange()
	full := [][]int{{0, 0, 0}, {64, 64, 64}}
	eighth := [][]int{{16, 16, 16}, {48, 48, 48}}
	for _, codec := range []struct {
		name string
		c    fxrz.Compressor
	}{
		{"zfp", fxrz.NewZFP()},
		{"sz", fxrz.NewSZ()},
	} {
		blob, err := codec.c.Compress(f, knob)
		if err != nil {
			b.Fatal(err)
		}
		indexed, err := fxrz.IndexBlob(blob)
		if err != nil {
			b.Fatal(err)
		}
		overhead := float64(len(indexed)-len(blob)) / float64(len(blob))
		for _, region := range []struct {
			name   string
			lo, hi []int
		}{
			{"full", full[0], full[1]},
			{"eighth", eighth[0], eighth[1]},
		} {
			b.Run(fmt.Sprintf("%s/%s", codec.name, region.name), func(b *testing.B) {
				b.ReportMetric(overhead, "idx-frac")
				for i := 0; i < b.N; i++ {
					if _, err := fxrz.DecompressRegion(indexed, region.lo, region.hi); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
