package core

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// clobberSource yields a stream in segments whose sizes cycle through
// steps, all in one reused cube: each ReadStream overwrites the words
// of the segment before, as container.ChunkReader reuses its planes.
// A reader that kept a segment past the next ReadStream would decode
// the next segment's trits in its place.
type clobberSource struct {
	c         *bitvec.Cube
	steps     []int
	off, i    int
	care, val []uint64
	seg       *bitvec.Cube
}

func newClobberSource(c *bitvec.Cube, steps ...int) *clobberSource {
	words := 1
	for _, n := range steps {
		words = max(words, (min(n, c.Len())+63)/64)
	}
	s := &clobberSource{c: c, steps: steps, care: make([]uint64, words), val: make([]uint64, words)}
	s.seg = bitvec.CubeOfWords(0, s.care, s.val)
	return s
}

func (s *clobberSource) ReadStream() (*bitvec.Cube, error) {
	if s.off >= s.c.Len() {
		return nil, io.EOF
	}
	n := min(s.steps[s.i%len(s.steps)], s.c.Len()-s.off)
	s.i++
	clear(s.care)
	clear(s.val)
	for w := 0; 64*w < n; w++ {
		care, val := s.c.ReadWord(s.off + 64*w)
		m := ^uint64(0)
		if rem := n - 64*w; rem < 64 {
			m = uint64(1)<<uint(rem) - 1
		}
		s.care[w], s.val[w] = care&m, val&m
	}
	s.off += n
	s.seg.ResetWords(n, s.care, s.val)
	return s.seg, nil
}

// decodeRows drains a StreamDecoder over src through AppendText (text)
// or ReadPattern, returning the rows and the first error other than a
// clean io.EOF.
func decodeRows(c *Codec, src StreamSource, width int, text bool) ([]string, error) {
	d, err := c.NewStreamDecoder(src, width, robust.DecodeLimits{})
	if err != nil {
		return nil, err
	}
	defer d.Release()
	var rows []string
	var buf []byte
	for {
		var row string
		if text {
			buf, err = d.AppendText(buf[:0])
			row = string(buf)
		} else {
			var p *bitvec.Cube
			if p, err = d.ReadPattern(); p != nil {
				row = p.String()
			}
		}
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
}

// checkRows decodes src from mk along the text kernel, plane kernel and
// generic paths and fails unless each gives exactly want's rows.
func checkRows(t *testing.T, label string, c *Codec, mk func() StreamSource, width int, want *tcube.Set) {
	t.Helper()
	for _, p := range []struct {
		name string
		c    *Codec
		text bool
	}{{"text", c, true}, {"planes", c, false}, {"generic", forceGeneric(c), false}} {
		rows, err := decodeRows(p.c, mk(), width, p.text)
		if err != nil {
			t.Fatalf("%s %s: %v", label, p.name, err)
		}
		if len(rows) != want.Len() {
			t.Fatalf("%s %s: %d rows, want %d", label, p.name, len(rows), want.Len())
		}
		for i, row := range rows {
			if w := want.Cube(i).String(); row != w {
				t.Fatalf("%s %s: row %d\n got  %s\n want %s", label, p.name, i, row, w)
			}
		}
	}
}

// TestStreamDecoderClobberingSource pins the segment-lifetime contract
// of StreamSource: with a source that overwrites its one segment on
// every ReadStream, every decode path still returns DecodeSet's rows,
// for kernel block sizes and one without a kernel, at segment sizes
// from one trit to past a worst-case pattern.
func TestStreamDecoderClobberingSource(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, k := range append([]int{6}, kernelKs...) {
		cdc := mustCodec(t, k)
		width := 5*k + 3
		for _, xd := range []float64{0.2, 0.6, 0.95} {
			set := tcube.NewSet("clobber", width)
			for i := 0; i < 12; i++ {
				set.MustAppend(diffCube(rng, width, xd))
			}
			enc, err := cdc.EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cdc.DecodeSet(enc.Stream, width, set.Len())
			if err != nil {
				t.Fatal(err)
			}
			worst := cdc.worstBits((width + k - 1) / k)
			for _, steps := range [][]int{{1}, {7, 64, 3}, {64}, {worst - 1}, {worst + 1, 5}, {1 << 12}} {
				label := fmt.Sprintf("K=%d X=%.2f steps %v", k, xd, steps)
				checkRows(t, label, cdc, func() StreamSource { return newClobberSource(enc.Stream, steps...) }, width, want)
			}
		}
	}
}

// TestStreamDecoderSeamAtEveryOffset puts the one seam of a
// two-segment stream at every trit offset, so it falls inside every
// codeword (of every length the stream holds) and inside every run of
// shipped data, at each kernel K; every decode path must return
// DecodeSet's rows.
func TestStreamDecoderSeamAtEveryOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
		width := 2*k + 3
		set := tcube.NewSet("seam", width)
		for i := 0; i < 6; i++ {
			set.MustAppend(diffCube(rng, width, 0.4))
		}
		enc, err := cdc.EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		// Codewords of several lengths and shipped halves must occur,
		// or some seam positions would go untested.
		var long, data int
		for cs := CaseAll0; cs <= CaseMisMis; cs++ {
			if cdc.assign.Len(cs) >= 4 {
				long += enc.Counts[cs-1]
			}
			if cs.LeftMismatch() || cs.RightMismatch() {
				data += enc.Counts[cs-1]
			}
		}
		if long == 0 || data == 0 {
			t.Fatalf("K=%d: stream has %d long codewords and %d shipped blocks", k, long, data)
		}
		want, err := cdc.DecodeSet(enc.Stream, width, set.Len())
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b < enc.Stream.Len(); b++ {
			label := fmt.Sprintf("K=%d seam at %d of %d", k, b, enc.Stream.Len())
			checkRows(t, label, cdc, func() StreamSource { return newClobberSource(enc.Stream, b, enc.Stream.Len()) }, width, want)
		}
	}
}
