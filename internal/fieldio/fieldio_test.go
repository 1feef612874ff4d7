package fieldio

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/fxrz-go/fxrz/internal/grid"
)

func TestRoundTrip(t *testing.T) {
	f := grid.MustNew("a test field", 3, 4, 5)
	for i := range f.Data {
		f.Data[i] = float32(i) * 0.25
	}
	// Bit-exactness must survive NaN payloads and infinities.
	f.Data[0] = float32(math.NaN())
	f.Data[1] = float32(math.Inf(1))
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "a_test_field" {
		t.Errorf("name = %q", g.Name)
	}
	if len(g.Dims) != 3 || g.Dims[0] != 3 || g.Dims[1] != 4 || g.Dims[2] != 5 {
		t.Errorf("dims = %v", g.Dims)
	}
	for i := range f.Data {
		if math.Float32bits(f.Data[i]) != math.Float32bits(g.Data[i]) {
			t.Fatalf("sample %d: %x != %x", i, math.Float32bits(f.Data[i]), math.Float32bits(g.Data[i]))
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"wrong magic":  "notafield x 3\nxxxx",
		"no dims":      "fxrzfield x\n",
		"bad dim":      "fxrzfield x 3 four\n",
		"zero dim":     "fxrzfield x 0\n",
		"neg dim":      "fxrzfield x -3\n",
		"too many":     "fxrzfield x 2 2 2 2 2\n",
		"overflow dim": "fxrzfield x 9999999 9999999 9999999\n",
		"truncated":    "fxrzfield x 2 2\n\x00\x00",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadRejectsUnboundedHeader(t *testing.T) {
	// A binary stream with no newline must fail fast, not buffer forever.
	junk := strings.Repeat("\xff", 3*maxHeaderLen)
	if _, err := Read(strings.NewReader(junk)); err == nil {
		t.Fatal("headerless binary stream accepted")
	}
}

// A header may claim far more samples than the body carries (the body of a
// /v1/pack or /v1/estimate request is untrusted). Read must fail on the
// missing payload without first allocating what the header claims: 2^36
// samples would be a 256 GiB block.
func TestReadHugeHeaderDoesNotAllocate(t *testing.T) {
	const body = "fxrzfield x 1024 1024 1024 64\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header claiming 2^36 samples with no payload accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Read allocated %d bytes for an empty payload, want < 1 MiB", got)
	}
}

// A field larger than one read chunk must still round-trip, and a payload
// cut short in a later chunk must fail.
func TestReadMultiChunk(t *testing.T) {
	f := grid.MustNew("big", 3, readChunkSamples+7)
	for i := range f.Data {
		f.Data[i] = float32(i) - 0.5
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		if math.Float32bits(f.Data[i]) != math.Float32bits(g.Data[i]) {
			t.Fatalf("sample %d: %x != %x", i, math.Float32bits(f.Data[i]), math.Float32bits(g.Data[i]))
		}
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()-4])); err == nil {
		t.Fatal("payload one sample short accepted")
	}
}

// FuzzRead drives Read with arbitrary bodies: it must fail or succeed,
// never panic or over-allocate. On success, Write emits the canonical form
// of what was read — its payload is the input's payload byte for byte — and
// that form reads back and re-writes to the same bytes.
func FuzzRead(f *testing.F) {
	seed := grid.MustNew("seed", 2, 3)
	for i := range seed.Data {
		seed.Data[i] = float32(i) * 1.5
	}
	var buf bytes.Buffer
	if err := Write(&buf, seed); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("fxrzfield x 1024 1024 1024 64\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, g); err != nil {
			t.Fatal(err)
		}
		payload := data[bytes.IndexByte(data, '\n')+1:][:4*g.Size()]
		canon := out.Bytes()
		if !bytes.Equal(canon[bytes.IndexByte(canon, '\n')+1:], payload) {
			t.Fatal("re-written payload differs from the input payload")
		}
		g2, err := Read(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form does not read back: %v", err)
		}
		var again bytes.Buffer
		if err := Write(&again, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), canon) {
			t.Fatal("canonical form is not stable under Read/Write")
		}
	})
}
