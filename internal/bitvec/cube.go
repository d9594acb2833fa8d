package bitvec

import (
	"fmt"
	"math/rand"
)

// Trit is a ternary test-data digit: 0, 1 or X (unspecified).
type Trit uint8

// Ternary digit values.
const (
	Zero Trit = iota
	One
	X
)

// String returns "0", "1" or "X".
func (t Trit) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	case X:
		return "X"
	}
	return fmt.Sprintf("Trit(%d)", uint8(t))
}

// Cube is a fixed-length ternary vector, the unit of precomputed test
// data: every position is 0, 1 or X. It is stored as two packed bit
// planes: care (1 = specified) and val (the value where specified; val
// is kept 0 at unspecified positions as an invariant).
type Cube struct {
	care *Bits
	val  *Bits
}

// NewCube returns an all-X cube of n bits.
func NewCube(n int) *Cube {
	return &Cube{care: NewBits(n), val: NewBits(n)}
}

// Len returns the number of trits in the cube.
func (c *Cube) Len() int { return c.care.Len() }

// Get returns the trit at position i.
func (c *Cube) Get(i int) Trit {
	if !c.care.Get(i) {
		return X
	}
	if c.val.Get(i) {
		return One
	}
	return Zero
}

// Set assigns the trit at position i.
func (c *Cube) Set(i int, t Trit) {
	switch t {
	case X:
		c.care.Set(i, false)
		c.val.Set(i, false)
	case Zero:
		c.care.Set(i, true)
		c.val.Set(i, false)
	case One:
		c.care.Set(i, true)
		c.val.Set(i, true)
	default:
		panic(fmt.Sprintf("bitvec: invalid trit %d", t))
	}
}

// Specified returns the number of non-X positions.
func (c *Cube) Specified() int { return c.care.OnesCount() }

// XCount returns the number of X positions.
func (c *Cube) XCount() int { return c.Len() - c.Specified() }

// Clone returns a deep copy of the cube.
func (c *Cube) Clone() *Cube {
	return &Cube{care: c.care.Clone(), val: c.val.Clone()}
}

// Equal reports whether two cubes have identical length and trits.
func (c *Cube) Equal(o *Cube) bool {
	return c.care.Equal(o.care) && c.val.Equal(o.val)
}

// Covers reports whether every specified position of c agrees with o;
// X positions of c impose no constraint. In test-generation terms, o is
// a legal fill of c when c.Covers-as-pattern holds, i.e. o may further
// specify c but never contradict it.
func (c *Cube) Covers(o *Cube) bool {
	if c.Len() != o.Len() {
		return false
	}
	// Word-wise: o must specify every care bit of c (care_c ⊆ care_o)
	// and agree with its value there. Bits past Len are zero in both.
	for i, care := range c.care.words {
		if care&^o.care.words[i] != 0 || (c.val.words[i]^o.val.words[i])&care != 0 {
			return false
		}
	}
	return true
}

// Slice returns a copy of positions [lo, hi). Out-of-range positions
// beyond the cube length are padded with X, which matches how codecs
// pad a trailing partial block. The copy moves whole words.
func (c *Cube) Slice(lo, hi int) *Cube {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("bitvec: invalid slice [%d,%d)", lo, hi))
	}
	b := NewCubeBuilder(hi - lo)
	b.AppendCubeRange(c, lo, hi)
	return b.Build()
}

// CompatibleZero reports whether every position in [lo,hi) is 0 or X.
// Positions beyond the cube end count as X. Runs word-at-a-time: a One
// exists exactly where the value plane has a 1 (val ⊆ care invariant).
func (c *Cube) CompatibleZero(lo, hi int) bool {
	return !c.val.AnyInRange(lo, hi)
}

// CompatibleOne reports whether every position in [lo,hi) is 1 or X.
// A Zero exists exactly where care is 1 and val is 0, so the test is a
// masked word scan for any care&^val bit.
func (c *Cube) CompatibleOne(lo, hi int) bool {
	_, oneOK := c.Compat(lo, hi)
	return oneOK
}

// FillConst returns a copy with every X replaced by v.
func (c *Cube) FillConst(v Trit) *Cube {
	if v == X {
		panic("bitvec: FillConst with X")
	}
	out := c.Clone()
	for i := 0; i < out.Len(); i++ {
		if out.Get(i) == X {
			out.Set(i, v)
		}
	}
	return out
}

// FillRandom returns a copy with every X replaced by a random bit drawn
// from rng.
func (c *Cube) FillRandom(rng *rand.Rand) *Cube {
	out := c.Clone()
	for i := 0; i < out.Len(); i++ {
		if out.Get(i) == X {
			if rng.Intn(2) == 1 {
				out.Set(i, One)
			} else {
				out.Set(i, Zero)
			}
		}
	}
	return out
}

// FillAdjacent returns a copy with each X replaced by the value of the
// nearest specified position to its left (minimum-transition fill, the
// standard power-aware fill the paper alludes to). A leading run of X
// takes the value of the first specified bit, or 0 for an all-X cube.
func (c *Cube) FillAdjacent() *Cube {
	out := c.Clone()
	last := Zero
	for i := 0; i < out.Len(); i++ {
		if t := out.Get(i); t != X {
			last = t
			break
		}
	}
	for i := 0; i < out.Len(); i++ {
		if t := out.Get(i); t != X {
			last = t
		} else {
			out.Set(i, last)
		}
	}
	return out
}

// String renders the cube as a string over {0,1,X}.
func (c *Cube) String() string {
	return string(c.AppendTextRange(make([]byte, 0, c.Len()), 0, c.Len()))
}
