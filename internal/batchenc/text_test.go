package batchenc

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// textKs are the block sizes the text differential runs at: every
// kernel K and one without a kernel.
var textKs = []int{4, 6, 8, 16, 32}

// parserEncode is the oracle of the text path: tcube.Read, the
// empty-set check, Codec.Encode (twice in frequency-directed mode) and
// the v4 writer — what /encode ran before the text path existed.
func parserEncode(text []byte, k int, fd bool, name string) ([]byte, error) {
	set, err := tcube.Read(name, bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	if set.Len() == 0 {
		return nil, fmt.Errorf("empty test set: %w", robust.ErrCorrupt)
	}
	cdc, err := core.New(k)
	if err != nil {
		return nil, err
	}
	res, err := cdc.EncodeSet(set)
	if err != nil {
		return nil, err
	}
	if fd {
		if cdc, err = core.NewWithAssignment(k, core.FrequencyDirected(res.Counts)); err != nil {
			return nil, err
		}
		if res, err = cdc.EncodeSet(set); err != nil {
			return nil, err
		}
	}
	res.Name = name
	var buf bytes.Buffer
	err = container.WriteVersion(&buf, res, container.Magic4)
	return buf.Bytes(), err
}

// checkTextEncode runs one body through Encode's text entry and the
// parser oracle and fails unless both give the same container bytes
// or the same error string.
func checkTextEncode(t *testing.T, e *Encoder, text []byte, k int, fd bool) {
	t.Helper()
	got, gotErr := e.Encode(context.Background(), Request{Text: text, K: k, FD: fd, Name: "text"})
	want, wantErr := parserEncode(text, k, fd, "text")
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("K=%d fd=%v %q: error %v, parser path %v", k, fd, text, gotErr, wantErr)
	}
	if !bytes.Equal(got.Container, want) {
		t.Fatalf("K=%d fd=%v %q: container differs from the parser path's", k, fd, text)
	}
}

// textSeeds are the body shapes the text differential starts from: the
// example set, the line forms the parser trims or skips, all-X rows
// and the widths around a block boundary.
func textSeeds(t testing.TB) [][]byte {
	cubes, err := os.ReadFile("../../examples/cubes.txt")
	if err != nil {
		t.Fatal(err)
	}
	row := func(w int) string { return strings.Repeat("01X-x10X1", w/9+1)[:w] }
	seeds := [][]byte{
		cubes,
		[]byte("0101\r\n1X0X\r\n"),
		[]byte(" 0101\n1X0X\n"),
		[]byte("0101\n 1X0X\n"),
		[]byte("# a comment\n0101\n# another\n1X0X\n#"),
		[]byte("\n\n0101\n\n\n1X0X\n\n"),
		[]byte(strings.Repeat(strings.Repeat("X", 70)+"\n", 3)),
		[]byte("0101\n010\n"),
		[]byte("0101\n01@1\n"),
		[]byte("01X\n0@\n"),
		[]byte("01\t01\n"),
		[]byte("# c\n\n0101X\n#d\r\n1X0-x\n"),
		[]byte("0101\n1X0X"),
		[]byte("# only comments\n\n"),
		[]byte(""),
	}
	for _, k := range textKs {
		seeds = append(seeds,
			[]byte(strings.Repeat(row(k-1)+"\n", 4)),
			[]byte(strings.Repeat(row(2*k+3)+"\n", 4)))
	}
	return seeds
}

// TestEncodeTextMatchesParser runs every seed at every K, fixed and
// frequency-directed, through the text differential.
func TestEncodeTextMatchesParser(t *testing.T) {
	e := New(Config{})
	for _, text := range textSeeds(t) {
		for _, k := range textKs {
			for _, fd := range []bool{false, true} {
				checkTextEncode(t, e, text, k, fd)
			}
		}
	}
}

// FuzzEncodeText hunts for a body the text path answers differently
// from the parser path: other container bytes or another error string.
func FuzzEncodeText(f *testing.F) {
	for i, text := range textSeeds(f) {
		f.Add(text, uint8(i), i%2 == 0)
	}
	e := New(Config{})
	f.Fuzz(func(t *testing.T, text []byte, kRaw uint8, fd bool) {
		checkTextEncode(t, e, text, textKs[int(kRaw)%len(textKs)], fd)
	})
}
