package tcube

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/bitvec"
)

// FuzzRead checks the 01X parser never panics and accepted sets
// round-trip through Write.
func FuzzRead(f *testing.F) {
	f.Add("01X\nX10\n")
	f.Add("# comment\n\n0X1")
	f.Add("")
	f.Add("0\n01")
	f.Add(strings.Repeat("X", 1000))
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Read("fuzz", strings.NewReader(src))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := s.Write(&sb); err != nil {
			t.Fatalf("write of accepted set failed: %v", err)
		}
		again, err := Read("fuzz2", strings.NewReader(sb.String()))
		if err != nil || !again.Equal(s) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// refParseCube is the per-trit 01X parser Read used before the
// word-parallel kernel, kept as the differential oracle.
func refParseCube(s string) (*bitvec.Cube, error) {
	c := bitvec.NewCube(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			c.Set(i, bitvec.Zero)
		case '1':
			c.Set(i, bitvec.One)
		case 'x', 'X', '-':
		default:
			return nil, fmt.Errorf("bitvec: invalid cube character %q at %d", s[i], i)
		}
	}
	return c, nil
}

// refRead is the line-at-a-time string reader Read replaced: it trims
// each line with strings.TrimSpace and parses it per trit.
func refRead(name string, r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24)
	var set *Set
	line := 0
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		c, err := refParseCube(txt)
		if err != nil {
			return nil, fmt.Errorf("tcube: line %d: %w", line, err)
		}
		if set == nil {
			set = NewSet(name, c.Len())
		}
		if err := set.Append(c); err != nil {
			return nil, fmt.Errorf("tcube: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if set == nil {
		set = NewSet(name, 0)
	}
	return set, nil
}

// readSeeds are the edge shapes of the 01X format: CRLF, NBSP and NEL
// whitespace, '-' and lowercase x, comments after leading spaces,
// ragged widths, more rows than one doubling slab holds, and a bad
// byte on each side of a load and a word boundary.
func readSeeds() []string {
	row := strings.Repeat("01X-x10X", 13) // 104 trits
	seeds := []string{
		"01X\r\nX10\r\n",
		" 01X \nX10\u0085\n",
		"\u00a001X\u00a0\nX10\n",
		"\u008501-x\n1x0X",
		"   # indented comment\n\t# tab comment\n01X\n",
		"0101\n011\n",
		"01\n0a1\n",
		"\n\n\r\n",
		row + "\n" + row + "\n",
		strings.Repeat(row+"\n", 20), // spans several slabs without a length
	}
	for _, pos := range []int{0, 7, 8, 63, 64, len(row) - 1} {
		bad := []byte(row)
		bad[pos] = '2'
		seeds = append(seeds, row+"\n"+string(bad)+"\n")
	}
	return seeds
}

// checkReadAgrees asserts Read and refRead return equal sets with the
// same name and width, or the same error string. Read runs twice: on a
// strings.Reader, whose Len sizes one plane slab, and on a reader
// without a length, whose slabs double.
func checkReadAgrees(t *testing.T, src string) {
	want, werr := refRead("d", strings.NewReader(src))
	for _, r := range []io.Reader{strings.NewReader(src), io.MultiReader(strings.NewReader(src))} {
		got, gerr := Read("d", r)
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("%q: err %v, reference %v", src, gerr, werr)
		case gerr != nil:
			if gerr.Error() != werr.Error() {
				t.Fatalf("%q: err %q, reference %q", src, gerr, werr)
			}
		case got.Name != want.Name || got.Width() != want.Width() || !got.Equal(want):
			t.Fatalf("%q: set %s/%d differs from reference %s/%d", src, got.Name, got.Width(), want.Name, want.Width())
		}
	}
}

// FuzzReadDifferential checks the word-parallel Read against the
// per-trit reference reader: equal sets, or the same error string.
func FuzzReadDifferential(f *testing.F) {
	for _, s := range readSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkReadAgrees)
}
