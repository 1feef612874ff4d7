// Package fieldio reads and writes the fxrzfield container — the tiny
// self-describing on-disk and on-wire format for dense float32 fields used
// by cmd/fxrz files and the fxrzd HTTP endpoints alike:
//
//	fxrzfield <name> <d0> [d1 ...]\n
//	<little-endian float32 samples, row-major>
//
// The header line is ASCII so a field file identifies itself under `head`;
// the payload is raw sample bits, so round trips are bit-exact (NaN
// payloads included).
package fieldio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/fxrz-go/fxrz/internal/grid"
)

// magicWord opens every container header line.
const magicWord = "fxrzfield"

// maxHeaderLen bounds the header line a reader will buffer before giving
// up: a name plus four 13-digit dims fit comfortably, while a binary blob
// mistaken for a field file fails fast instead of buffering gigabytes
// hunting for a newline.
const maxHeaderLen = 4096

// Write serialises f to w in the fxrzfield container format.
func Write(w io.Writer, f *grid.Field) error {
	bw := bufio.NewWriter(w)
	name := strings.ReplaceAll(f.Name, " ", "_")
	if name == "" {
		name = "field"
	}
	if _, err := fmt.Fprintf(bw, "%s %s", magicWord, name); err != nil {
		return err
	}
	for _, d := range f.Dims {
		if _, err := fmt.Fprintf(bw, " %d", d); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	var buf [4]byte
	for _, v := range f.Data {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readChunkSamples is how many samples Read converts per read from the
// underlying reader; it also bounds the first allocation for the payload.
const readChunkSamples = 1 << 14

// Read parses one field from r. Dimension validation is grid's (1–4 strictly
// positive dims, bounded product). The sample buffer grows only with samples
// actually received, so a header that claims more samples than the stream
// holds fails after allocating at most about twice what arrived; callers
// reading from untrusted sources should still cap the reader itself (the
// serve layer uses http.MaxBytesReader).
func Read(r io.Reader) (*grid.Field, error) {
	br := bufio.NewReader(r)
	header, err := readHeaderLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.Fields(header)
	if len(parts) < 3 || parts[0] != magicWord {
		return nil, fmt.Errorf("fieldio: not an fxrzfield container")
	}
	name := parts[1]
	dims := make([]int, 0, len(parts)-2)
	n := 1
	for _, p := range parts[2:] {
		d, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("fieldio: bad dim %q", p)
		}
		if d <= 0 {
			return nil, fmt.Errorf("fieldio: %w", grid.ErrDims)
		}
		if n > math.MaxInt/d {
			return nil, fmt.Errorf("fieldio: dims %v overflow the sample count", parts[2:])
		}
		n *= d
		dims = append(dims, d)
	}
	data, err := readSamples(br, n)
	if err != nil {
		return nil, fmt.Errorf("fieldio: reading %d samples: %w", n, err)
	}
	f, err := grid.FromData(name, data, dims...)
	if err != nil {
		return nil, fmt.Errorf("fieldio: %w", err)
	}
	return f, nil
}

// readSamples reads n little-endian float32 samples, doubling the sample
// buffer (up to n) only as earlier samples arrive.
func readSamples(r io.Reader, n int) ([]float32, error) {
	data := make([]float32, 0, min(n, readChunkSamples))
	buf := make([]byte, 4*cap(data))
	for len(data) < n {
		k := min(n-len(data), readChunkSamples)
		if _, err := io.ReadFull(r, buf[:4*k]); err != nil {
			return nil, err
		}
		if len(data)+k > cap(data) {
			data = append(make([]float32, 0, min(n, 2*cap(data))), data...)
		}
		for i := 0; i < k; i++ {
			data = append(data, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return data, nil
}

// readHeaderLine reads up to maxHeaderLen bytes of the ASCII header line.
func readHeaderLine(br *bufio.Reader) (string, error) {
	var sb strings.Builder
	for sb.Len() < maxHeaderLen {
		b, err := br.ReadByte()
		if err != nil {
			return "", fmt.Errorf("fieldio: reading header: %w", err)
		}
		if b == '\n' {
			return sb.String(), nil
		}
		sb.WriteByte(b)
	}
	return "", fmt.Errorf("fieldio: header line exceeds %d bytes", maxHeaderLen)
}
