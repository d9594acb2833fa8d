// Package tcube represents precomputed scan test sets: ordered lists of
// equal-length ternary cubes (0/1/X), the T_D of the paper. It provides
// parsing and serialization of the plain "01X text" interchange format,
// volume and don't-care statistics, X-fill strategies, and the vertical
// reshaping used when one decompressor feeds m parallel scan chains.
package tcube

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/bitvec"
)

// Set is an ordered collection of test cubes of identical length. The
// cube length is the scan-load width (for full-scan circuits: number of
// scan cells plus primary inputs applied through scan).
type Set struct {
	Name  string
	cubes []*bitvec.Cube
	width int
}

// NewSet returns an empty set expecting cubes of the given width.
func NewSet(name string, width int) *Set {
	if width < 0 {
		panic("tcube: negative width")
	}
	return &Set{Name: name, width: width}
}

// Width returns the per-cube trit count.
func (s *Set) Width() int { return s.width }

// Len returns the number of cubes (test patterns).
func (s *Set) Len() int { return len(s.cubes) }

// Bits returns |T_D|, the total test-data volume in bits.
func (s *Set) Bits() int { return s.Len() * s.width }

// Cube returns pattern i.
func (s *Set) Cube(i int) *bitvec.Cube { return s.cubes[i] }

// Append adds a cube to the set. It returns an error if the cube width
// does not match the set.
func (s *Set) Append(c *bitvec.Cube) error {
	if c.Len() != s.width {
		return fmt.Errorf("tcube: cube width %d != set width %d", c.Len(), s.width)
	}
	s.cubes = append(s.cubes, c)
	return nil
}

// MustAppend is Append for construction sites where a width mismatch is
// a programming error.
func (s *Set) MustAppend(c *bitvec.Cube) {
	if err := s.Append(c); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := NewSet(s.Name, s.width)
	for _, c := range s.cubes {
		out.cubes = append(out.cubes, c.Clone())
	}
	return out
}

// XCount returns the total number of don't-care positions.
func (s *Set) XCount() int {
	n := 0
	for _, c := range s.cubes {
		n += c.XCount()
	}
	return n
}

// XPercent returns 100 * XCount / Bits, the paper's "X%" column. It
// returns 0 for an empty set.
func (s *Set) XPercent() float64 {
	if s.Bits() == 0 {
		return 0
	}
	return 100 * float64(s.XCount()) / float64(s.Bits())
}

// Flatten concatenates all cubes, in order, into one long cube. This is
// the serial bit order in which a single scan chain consumes T_D. The
// concatenation blits whole words of the packed planes.
func (s *Set) Flatten() *bitvec.Cube {
	b := bitvec.NewCubeBuilder(s.Bits())
	for _, c := range s.cubes {
		b.AppendCube(c)
	}
	return b.Build()
}

// FromFlat rebuilds a Set of the given width from a flattened cube. The
// flat length must be a multiple of width (width 0 requires length 0).
func FromFlat(name string, flat *bitvec.Cube, width int) (*Set, error) {
	if width <= 0 {
		if flat.Len() == 0 {
			return NewSet(name, width), nil
		}
		return nil, fmt.Errorf("tcube: width %d with %d bits", width, flat.Len())
	}
	if flat.Len()%width != 0 {
		return nil, fmt.Errorf("tcube: flat length %d not a multiple of width %d", flat.Len(), width)
	}
	out := NewSet(name, width)
	for off := 0; off < flat.Len(); off += width {
		if err := out.Append(flat.Slice(off, off+width)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Equal reports whether two sets hold identical cubes in order.
func (s *Set) Equal(o *Set) bool {
	if s.width != o.width || s.Len() != o.Len() {
		return false
	}
	for i, c := range s.cubes {
		if !c.Equal(o.cubes[i]) {
			return false
		}
	}
	return true
}

// Covers reports whether o is a legal fill of s: same shape, and every
// specified bit of s is preserved in o.
func (s *Set) Covers(o *Set) bool {
	if s.width != o.width || s.Len() != o.Len() {
		return false
	}
	for i, c := range s.cubes {
		if !c.Covers(o.cubes[i]) {
			return false
		}
	}
	return true
}

// FillRandom returns a copy with every X filled from rng, the paper's
// recommended use of leftover don't-cares.
func (s *Set) FillRandom(rng *rand.Rand) *Set {
	out := NewSet(s.Name, s.width)
	for _, c := range s.cubes {
		out.cubes = append(out.cubes, c.FillRandom(rng))
	}
	return out
}

// FillConst returns a copy with every X replaced by v.
func (s *Set) FillConst(v bitvec.Trit) *Set {
	out := NewSet(s.Name, s.width)
	for _, c := range s.cubes {
		out.cubes = append(out.cubes, c.FillConst(v))
	}
	return out
}

// FillAdjacent returns a copy with minimum-transition (adjacent) fill
// applied to every cube.
func (s *Set) FillAdjacent() *Set {
	out := NewSet(s.Name, s.width)
	for _, c := range s.cubes {
		out.cubes = append(out.cubes, c.FillAdjacent())
	}
	return out
}

// Write serializes the set in the 01X text format: one cube per line,
// '#'-prefixed comment lines allowed, blank lines ignored. Every row is
// rendered into one reused buffer.
func (s *Set) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# test set %s: %d patterns x %d bits, %.2f%% X\n",
		s.Name, s.Len(), s.width, s.XPercent())
	row := make([]byte, 0, s.width+1)
	for _, c := range s.cubes {
		row = append(c.AppendTextRange(row[:0], 0, c.Len()), '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// slabWords caps the words one plane slab holds and the cube pointers
// Read reserves up front, so a size hint from a comment-heavy input
// cannot reserve much more than the cubes need.
const slabWords = 1 << 16

// slab hands out the packed plane words of a set's cubes from shared
// backing arrays: each cube gets a cap-limited window of a slab, so the
// planes of one set cost a few allocations instead of two per cube.
type slab struct{ care, val []uint64 }

// take returns the planes for one cube of the given word count. When
// the current slab is spent it allocates one with room for the given
// number of cubes, within slabWords.
func (p *slab) take(words, cubes int) (care, val []uint64) {
	if len(p.care) < words {
		n := words * max(1, min(cubes, slabWords/words))
		p.care, p.val = make([]uint64, n), make([]uint64, n)
	}
	care, val = p.care[:words:words], p.val[:words:words]
	p.care, p.val = p.care[words:], p.val[words:]
	return care, val
}

// MaxLineBytes is the longest line Read accepts: a line of this many
// bytes or more, newline excluded, fails with bufio.ErrTooLong.
const MaxLineBytes = 1 << 24

// Read parses the 01X text format. All cubes must share one width.
// Lines may run to MaxLineBytes; the scanner starts with a small
// buffer and grows it only as far as the longest line needs, so small
// inputs do not pay for the cap. Rows are parsed a word at a time straight from
// the scanner's buffer into plane slabs. A reader that reports its
// remaining length (bytes.Reader, strings.Reader, bytes.Buffer) bounds
// the cube count, so the first slab is sized once: every cube line but
// the last takes width+1 bytes.
func Read(name string, r io.Reader) (*Set, error) {
	size := -1
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLineBytes)
	set := NewSet(name, 0)
	var planes slab
	line := 0
	for sc.Scan() {
		line++
		txt := bytes.TrimSpace(sc.Bytes())
		if len(txt) == 0 || txt[0] == '#' {
			continue
		}
		if set.Len() == 0 {
			set.width = len(txt)
			n := 8
			if size >= 0 {
				n = (size + 1) / (len(txt) + 1)
			}
			set.cubes = make([]*bitvec.Cube, 0, min(n, slabWords))
		}
		if len(txt) != set.width {
			// A ragged row fails either way; parse it on its own so a
			// bad character still wins over the width mismatch.
			c, err := bitvec.ParseCube(string(txt))
			if err == nil {
				err = set.Append(c)
			}
			return nil, fmt.Errorf("tcube: line %d: %w", line, err)
		}
		// The next slab holds the cubes the hint still expects, or as
		// many as the set has so far: doubling without a hint.
		care, val := planes.take((len(txt)+63)/64, max(len(set.cubes), cap(set.cubes)-len(set.cubes)))
		if err := bitvec.ParseCubeWords(care, val, txt); err != nil {
			return nil, fmt.Errorf("tcube: line %d: %w", line, err)
		}
		set.cubes = append(set.cubes, bitvec.CubeOfWords(len(txt), care, val))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}
