package bitvec

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Word-level primitives shared by the 9C hot path: 64-trit reads and
// writes at arbitrary bit offsets, constant-run fills, single-pass
// half-block compatibility tests, and an appending CubeBuilder. These
// exist so the codec can move whole words of the packed care/val planes
// instead of touching trits one at a time.

// lowMask returns a mask of the low n bits, 0 <= n <= 64.
func lowMask(n int) uint64 {
	if n >= wordBits {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// word64At returns the 64 bits starting at bit offset off (bit j of the
// result is vector bit off+j). Positions at or beyond the end of the
// vector read as 0; off may exceed the length.
func (b *Bits) word64At(off int) uint64 {
	if off < 0 {
		panic("bitvec: negative offset")
	}
	if off >= b.n {
		return 0
	}
	wi, sh := off/wordBits, uint(off%wordBits)
	w := b.words[wi] >> sh
	if sh != 0 && wi+1 < len(b.words) {
		w |= b.words[wi+1] << (wordBits - sh)
	}
	return w
}

// writeWord64 replaces the n bits at offset off with the low n bits of
// w. The range [off, off+n) must lie inside the vector.
func (b *Bits) writeWord64(off int, w uint64, n int) {
	if n == 0 {
		return
	}
	if n < 0 || n > wordBits {
		panic("bitvec: writeWord64 width out of range")
	}
	if off < 0 || off+n > b.n {
		panic("bitvec: writeWord64 out of bounds")
	}
	mask := lowMask(n)
	w &= mask
	wi, sh := off/wordBits, uint(off%wordBits)
	b.words[wi] = b.words[wi]&^(mask<<sh) | w<<sh
	if sh != 0 && sh+uint(n) > wordBits {
		b.words[wi+1] = b.words[wi+1]&^(mask>>(wordBits-sh)) | w>>(wordBits-sh)
	}
}

// SetRange sets every bit in [lo, hi) to v, word at a time, clamped to
// the vector bounds.
func (b *Bits) SetRange(lo, hi int, v bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return
	}
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	for w := loWord; w <= hiWord; w++ {
		m := ^uint64(0)
		if w == loWord {
			m &= loMask
		}
		if w == hiWord {
			m &= hiMask
		}
		if v {
			b.words[w] |= m
		} else {
			b.words[w] &^= m
		}
	}
}

// ReadWord returns 64 trits starting at position off as packed care/val
// words (bit j describes trit off+j). Positions beyond the cube end
// read as X (care bit 0), which is exactly the padding rule for a
// trailing partial block.
func (c *Cube) ReadWord(off int) (care, val uint64) {
	return c.care.word64At(off), c.val.word64At(off)
}

// WriteWord replaces the n trits at [off, off+n) with the packed
// care/val words (bit j describes trit off+j). val is masked to care so
// the val-zero-at-X invariant holds regardless of the input.
func (c *Cube) WriteWord(off int, care, val uint64, n int) {
	c.care.writeWord64(off, care, n)
	c.val.writeWord64(off, val&care, n)
}

// SetRun assigns the trit t to every position in [lo, hi), word at a
// time, clamped to the cube bounds.
func (c *Cube) SetRun(lo, hi int, t Trit) {
	switch t {
	case X:
		c.care.SetRange(lo, hi, false)
		c.val.SetRange(lo, hi, false)
	case Zero:
		c.care.SetRange(lo, hi, true)
		c.val.SetRange(lo, hi, false)
	case One:
		c.care.SetRange(lo, hi, true)
		c.val.SetRange(lo, hi, true)
	default:
		panic("bitvec: SetRun with invalid trit")
	}
}

// Compat reports in one masked pass over the packed planes whether
// every trit in [lo, hi) is compatible with all-0s (no One present:
// val&care == 0) and with all-1s (no Zero present: care&^val == 0).
// Positions beyond the cube end count as X and are compatible with
// both.
func (c *Cube) Compat(lo, hi int) (zeroOK, oneOK bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > c.Len() {
		hi = c.Len()
	}
	zeroOK, oneOK = true, true
	if lo >= hi {
		return
	}
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	for w := loWord; w <= hiWord; w++ {
		m := ^uint64(0)
		if w == loWord {
			m &= loMask
		}
		if w == hiWord {
			m &= hiMask
		}
		care, val := c.care.words[w], c.val.words[w]
		if val&m != 0 {
			zeroOK = false
		}
		if care&^val&m != 0 {
			oneOK = false
		}
		if !zeroOK && !oneOK {
			return
		}
	}
	return
}

// RawWords exposes the cube's packed planes for word-at-a-time readers
// (the 9C per-K kernels): bit i of word i/64 is the care/val bit of
// trit i, and bits at or beyond Len() are zero. The slices alias the
// cube's storage and MUST NOT be modified; writers go through
// WriteWord/SetRun or a CubeBuilder instead.
func (c *Cube) RawWords() (care, val []uint64) {
	return c.care.words, c.val.words
}

// wordsFor returns the number of 64-bit words backing n trits.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// CubeOfWords wraps packed care/val planes as an n-trit cube without
// copying: the cube aliases the slices, whose length must be at least
// ⌈n/64⌉ words. The caller guarantees the plane invariants — val ⊆
// care, and every bit at position ≥ n zero — which the 9C kernel
// writers maintain by construction. For untrusted planes use
// NewCubeCopyWords, which re-establishes both invariants.
func CubeOfWords(n int, care, val []uint64) *Cube {
	words := wordsFor(n)
	if n < 0 || len(care) < words || len(val) < words {
		panic("bitvec: CubeOfWords planes shorter than length")
	}
	return &Cube{
		care: &Bits{n: n, words: care[:words:words]},
		val:  &Bits{n: n, words: val[:words:words]},
	}
}

// ResetWords repoints an existing cube at new packed planes in place,
// allocating nothing: the zero-allocation steady-state counterpart of
// CubeOfWords, used by reusable codec workspaces. The same aliasing and
// invariant contract applies.
func (c *Cube) ResetWords(n int, care, val []uint64) {
	words := wordsFor(n)
	if n < 0 || len(care) < words || len(val) < words {
		panic("bitvec: ResetWords planes shorter than length")
	}
	c.care.n, c.care.words = n, care[:words:words]
	c.val.n, c.val.words = n, val[:words:words]
}

// NewCubeCopyWords returns an n-trit cube holding a copy of the low n
// bits of the packed planes. Unlike CubeOfWords it owns its storage and
// re-establishes the invariants itself: val is masked to care and the
// tail bits of the last word are cleared.
func NewCubeCopyWords(n int, care, val []uint64) *Cube {
	words := wordsFor(n)
	if n < 0 || len(care) < words || len(val) < words {
		panic("bitvec: NewCubeCopyWords planes shorter than length")
	}
	cw := make([]uint64, words)
	vw := make([]uint64, words)
	copy(cw, care[:words])
	copy(vw, val[:words])
	for i := range vw {
		vw[i] &= cw[i]
	}
	c := &Cube{
		care: &Bits{n: n, words: cw},
		val:  &Bits{n: n, words: vw},
	}
	c.care.clip()
	c.val.clip()
	return c
}

// textNibble maps a 4-trit nibble, indexed care<<4 | val, to its 01X
// text packed little-endian (trit 0 in the low byte): 256 entries, 1 KiB.
var textNibble [256]uint32

func init() {
	for i := range textNibble {
		care, val := i>>4, i&15
		var t uint32
		for j := 0; j < 4; j++ {
			ch := uint32('X')
			if care>>j&1 == 1 {
				ch = '0' + uint32(val>>j&1)
			}
			t |= ch << (8 * j)
		}
		textNibble[i] = t
	}
}

// AppendTextRange appends the 01X text of trits [lo, hi) to dst and
// returns the extended slice, reading the planes a word at a time and
// emitting four trits per textNibble lookup. Positions beyond the cube
// end render as X (the padding rule). It is the zero-allocation emission
// path of the ninecd decode handlers: with a reused dst there is no
// per-call allocation once dst has grown to the row width.
func (c *Cube) AppendTextRange(dst []byte, lo, hi int) []byte {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("bitvec: invalid text range [%d,%d)", lo, hi))
	}
	start := len(dst)
	dst = slices.Grow(dst, hi-lo)[:start+hi-lo]
	out := dst[start:]
	for off := lo; off < hi; off += wordBits {
		care, val := c.ReadWord(off)
		seg := out[off-lo:]
		n := min(hi-off, wordBits)
		j := 0
		for ; j+4 <= n; j += 4 {
			binary.LittleEndian.PutUint32(seg[j:], textNibble[care&15<<4|val&15])
			care >>= 4
			val >>= 4
		}
		for t := textNibble[care&15<<4|val&15]; j < n; j, t = j+1, t>>8 {
			seg[j] = byte(t)
		}
	}
	return dst
}

// CubeBuilder accumulates a cube by appending trits at the tail, whole
// words at a time. It is the word-parallel replacement for building a
// cube with repeated Set calls; Build hands the accumulated storage to
// the resulting Cube without copying.
type CubeBuilder struct {
	care, val []uint64
	n         int
}

// NewCubeBuilder returns an empty builder with capacity preallocated
// for capBits trits (a hint; the builder grows as needed).
func NewCubeBuilder(capBits int) *CubeBuilder {
	if capBits < 0 {
		capBits = 0
	}
	words := (capBits + wordBits - 1) / wordBits
	return &CubeBuilder{
		care: make([]uint64, 0, words),
		val:  make([]uint64, 0, words),
	}
}

// Len returns the number of trits appended so far.
func (b *CubeBuilder) Len() int { return b.n }

// ensure grows the word slices to back bits trits.
func (b *CubeBuilder) ensure(bits int) {
	words := (bits + wordBits - 1) / wordBits
	for len(b.care) < words {
		b.care = append(b.care, 0)
		b.val = append(b.val, 0)
	}
}

// AppendWord appends n trits packed as care/val words: bit j of the
// words becomes trit Len()+j. val is masked to care (val ⊆ care
// invariant); n must be in [0, 64].
func (b *CubeBuilder) AppendWord(care, val uint64, n int) {
	if n == 0 {
		return
	}
	if n < 0 || n > wordBits {
		panic("bitvec: AppendWord width out of range")
	}
	mask := lowMask(n)
	care &= mask
	val &= care
	b.ensure(b.n + n)
	wi, off := b.n/wordBits, uint(b.n%wordBits)
	b.care[wi] |= care << off
	b.val[wi] |= val << off
	if off != 0 && off+uint(n) > wordBits {
		b.care[wi+1] |= care >> (wordBits - off)
		b.val[wi+1] |= val >> (wordBits - off)
	}
	b.n += n
}

// AppendBit appends a single trit.
func (b *CubeBuilder) AppendBit(t Trit) { b.AppendRun(t, 1) }

// AppendRun appends n copies of the trit t.
func (b *CubeBuilder) AppendRun(t Trit, n int) {
	if n < 0 {
		panic("bitvec: negative run length")
	}
	var care, val uint64
	switch t {
	case X:
	case Zero:
		care = ^uint64(0)
	case One:
		care = ^uint64(0)
		val = ^uint64(0)
	default:
		panic("bitvec: AppendRun with invalid trit")
	}
	for n > 0 {
		chunk := n
		if chunk > wordBits {
			chunk = wordBits
		}
		b.AppendWord(care, val, chunk)
		n -= chunk
	}
}

// AppendCubeRange appends the trits of c in [lo, hi); positions beyond
// the end of c append as X (block padding).
func (b *CubeBuilder) AppendCubeRange(c *Cube, lo, hi int) {
	if lo < 0 || hi < lo {
		panic("bitvec: invalid append range")
	}
	for off := lo; off < hi; {
		n := hi - off
		if n > wordBits {
			n = wordBits
		}
		care, val := c.ReadWord(off)
		b.AppendWord(care, val, n)
		off += n
	}
}

// AppendCube appends every trit of c.
func (b *CubeBuilder) AppendCube(c *Cube) { b.AppendCubeRange(c, 0, c.Len()) }

// Discard drops the first n trits, shifting the rest to the front a
// word at a time. The builder keeps its capacity, so a buffer that
// alternately appends at the tail and discards its consumed head
// reuses one backing array.
func (b *CubeBuilder) Discard(n int) {
	if n < 0 || n > b.n {
		panic(fmt.Sprintf("bitvec: discard %d of %d trits", n, b.n))
	}
	keep := b.n - n
	words := wordsFor(keep)
	wi, sh := n/wordBits, uint(n%wordBits)
	for i := 0; i < words; i++ {
		care, val := b.care[wi+i]>>sh, b.val[wi+i]>>sh
		if sh != 0 && wi+i+1 < len(b.care) {
			care |= b.care[wi+i+1] << (wordBits - sh)
			val |= b.val[wi+i+1] << (wordBits - sh)
		}
		b.care[i], b.val[i] = care, val
	}
	// Bits past the old end were zero, so the new last word is clean;
	// ensure re-zeroes the words beyond it as they come back into use.
	b.care, b.val, b.n = b.care[:words], b.val[:words], keep
}

// View returns the accumulated cube without resetting the builder. The
// cube aliases the builder's storage and is valid only until the next
// append or Discard.
func (b *CubeBuilder) View() *Cube {
	words := wordsFor(b.n)
	return &Cube{
		care: &Bits{n: b.n, words: b.care[:words:words]},
		val:  &Bits{n: b.n, words: b.val[:words:words]},
	}
}

// Build returns the accumulated cube, transferring the builder's
// storage to it (no copy), and resets the builder to empty.
func (b *CubeBuilder) Build() *Cube {
	c := b.View()
	b.care, b.val, b.n = nil, nil, 0
	return c
}
