package fxrz_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	fxrz "github.com/fxrz-go/fxrz"
	"github.com/fxrz-go/fxrz/internal/fieldio"
	"github.com/fxrz-go/fxrz/internal/sz"
)

// The 16³ golden field is a single SZ slab, so the committed fixtures never
// reach the chunked (multi-slab) SZ layout. TestGoldenChunkedSZ pins it
// without adding a fixture: it tiles the committed field 3×4×4 into a
// 48×64×64 field (three 16-row slabs) by pure copies and compares SHA-256
// digests of the blob and of its reconstruction against values recorded
// before the slab-parallel encoder replaced the serial slab walk.
//
// The plain tiling has no escapes at 1e-3, and its three slabs are equal.
// The second case rotates the rows of z-tile k by 5·k, so every slab
// differs, and uses 1e-6, where about a third of the points escape: it pins
// the order in which the slabs' escape runs land in the pool.
var goldenChunkedSZ = []struct {
	shift             int
	eb                float64
	blobSHA, reconSHA string
}{
	{0, 1e-3, "009f97f5b88307b220ea20131bd1012063370287567d51c1d37aba94b64bb732", "8311d9973a9edec2e4677877ac3e389dc7613ce9f41759a7aed9daf1b9a83a01"},
	{5, 1e-6, "bb570ab63a633faf00544b546ecc1f8530fcf094db851bf7e4eb6d731b1f101f", "8d783068863715ca8fa26a95db4dc764ff7afdcea9baa6f21d4b9da971bf2493"},
}

// tiledGoldenField repeats the committed 16³ field reps[d] times along each
// dimension; z-tile k takes its rows rotated by shift·k.
func tiledGoldenField(t *testing.T, reps [3]int, shift int) *fxrz.Field {
	t.Helper()
	src, err := fieldio.Read(bytes.NewReader(readGolden(t, "field.fxrzfield")))
	if err != nil {
		t.Fatal(err)
	}
	sd := src.Dims
	dims := []int{sd[0] * reps[0], sd[1] * reps[1], sd[2] * reps[2]}
	f, err := fxrz.NewField(src.Name, dims...)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < dims[0]; z++ {
		srcZ := (z + shift*(z/sd[0])) % sd[0]
		for y := 0; y < dims[1]; y++ {
			row := src.Data[(srcZ*sd[1]+y%sd[1])*sd[2]:][:sd[2]]
			dst := f.Data[(z*dims[1]+y)*dims[2]:][:dims[2]]
			for x := 0; x < dims[2]; x += sd[2] {
				copy(dst[x:], row)
			}
		}
	}
	return f
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenChunkedSZ(t *testing.T) {
	for _, tc := range goldenChunkedSZ {
		f := tiledGoldenField(t, [3]int{3, 4, 4}, tc.shift)
		for _, w := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("shift%d/eb%g/w%d", tc.shift, tc.eb, w), func(t *testing.T) {
				c := fxrz.WithParallelism(fxrz.NewSZ(), w)
				blob, err := c.Compress(f, tc.eb)
				if err != nil {
					t.Fatal(err)
				}
				if rows := sz.SlabRows(blob); rows != 16 {
					t.Fatalf("slab height %d, want 16 (three slabs)", rows)
				}
				rec, err := fxrz.DecompressParallel(blob, w)
				if err != nil {
					t.Fatal(err)
				}
				recBytes := make([]byte, 4*len(rec.Data))
				for i, v := range rec.Data {
					binary.LittleEndian.PutUint32(recBytes[4*i:], math.Float32bits(v))
				}
				if got := sha256Hex(blob); got != tc.blobSHA {
					t.Errorf("chunked sz blob digest %s, want %s", got, tc.blobSHA)
				}
				if got := sha256Hex(recBytes); got != tc.reconSHA {
					t.Errorf("chunked sz reconstruction digest %s, want %s", got, tc.reconSHA)
				}
			})
		}
	}
}
