package bitvec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refParseCube is the per-trit parser the word-parallel ParseCube
// replaced, kept as the differential oracle.
func refParseCube(s string) (*Cube, error) {
	c := NewCube(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			c.Set(i, Zero)
		case '1':
			c.Set(i, One)
		case 'x', 'X', '-':
			// already X
		default:
			return nil, fmt.Errorf("bitvec: invalid cube character %q at %d", s[i], i)
		}
	}
	return c, nil
}

// refCovers is the per-trit Covers the word-wise version replaced.
func refCovers(c, o *Cube) bool {
	if c.Len() != o.Len() {
		return false
	}
	for i := 0; i < c.Len(); i++ {
		t := c.Get(i)
		if t != X && t != o.Get(i) {
			return false
		}
	}
	return true
}

// checkParse asserts ParseCube and the oracle agree on s: equal cubes,
// or the same error string.
func checkParse(t *testing.T, s string) {
	t.Helper()
	got, gerr := ParseCube(s)
	want, werr := refParseCube(s)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("%q: err %v, oracle %v", s, gerr, werr)
	case gerr != nil:
		if gerr.Error() != werr.Error() {
			t.Fatalf("%q: err %q, oracle %q", s, gerr, werr)
		}
	case !got.Equal(want):
		t.Fatalf("%q: parsed %s, oracle %s", s, got, want)
	}
}

// TestParseCubeMatchesReference drives every byte value through every
// position of the first two words at lengths around the word and load
// boundaries, plus random valid text.
func TestParseCubeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const alphabet = "01xX-"
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200} {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		checkParse(t, string(b))
		for pos := 0; pos < min(n, 130); pos++ {
			for v := 0; v < 256; v++ {
				old := b[pos]
				b[pos] = byte(v)
				checkParse(t, string(b))
				b[pos] = old
			}
		}
	}
	// Two bad bytes in one load and in one word: the first one is named.
	checkParse(t, "0101a1b0")
	checkParse(t, strings.Repeat("0", 70)+"\x00"+strings.Repeat("1", 20)+"\xff")
}

// TestParseCubeWordsZeroesTail pins the plane contract: bits past the
// text length come out zero even when the destination held garbage.
func TestParseCubeWordsZeroesTail(t *testing.T) {
	care := []uint64{^uint64(0), ^uint64(0)}
	val := []uint64{^uint64(0), ^uint64(0)}
	if err := ParseCubeWords(care, val, []byte(strings.Repeat("1", 70))); err != nil {
		t.Fatal(err)
	}
	if care[0] != ^uint64(0) || val[0] != ^uint64(0) || care[1] != 63 || val[1] != 63 {
		t.Fatalf("planes %x/%x, want all ones then 0x3f", care, val)
	}
}

// TestCoversMatchesReference checks the word-wise Covers against the
// per-trit oracle at lengths that are not multiples of 64, flipping a
// single trit on either side of each word boundary.
func TestCoversMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 63, 65, 127, 129, 191, 250} {
		c := mixedCube(rng, n)
		fill := c.FillRandom(rng)
		if !c.Covers(fill) || !refCovers(c, fill) {
			t.Fatalf("n=%d: a fill must be covered", n)
		}
		for _, pos := range []int{0, 62, 63, 64, 65, 127, 128, n - 1} {
			if pos < 0 || pos >= n {
				continue
			}
			for _, tr := range []Trit{Zero, One, X} {
				for _, side := range []*Cube{c, fill} {
					o := side.Clone()
					o.Set(pos, tr)
					if got, want := c.Covers(o), refCovers(c, o); got != want {
						t.Fatalf("n=%d pos=%d trit=%v: Covers %v, oracle %v", n, pos, tr, got, want)
					}
					if got, want := o.Covers(c), refCovers(o, c); got != want {
						t.Fatalf("n=%d pos=%d trit=%v reversed: Covers %v, oracle %v", n, pos, tr, got, want)
					}
				}
			}
		}
		if c.Covers(mixedCube(rng, n+1)) {
			t.Fatalf("n=%d: length mismatch must not cover", n)
		}
	}
}

// BenchmarkParseCube measures parsing one 1664-trit row (an
// s38417-width scan load).
func BenchmarkParseCube(b *testing.B) {
	s := []byte(mixedCube(rand.New(rand.NewSource(23)), 1664).String())
	care, val := make([]uint64, wordsFor(len(s))), make([]uint64, wordsFor(len(s)))
	b.SetBytes(int64(len(s)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ParseCubeWords(care, val, s); err != nil {
			b.Fatal(err)
		}
	}
}
