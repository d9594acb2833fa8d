package core

import (
	"repro/internal/bitvec"
)

// This file is the word-parallel hot path of the 9C codec. Like the
// paper's decoder, whose FSM is the same for every block size and only
// sizes a log2(K/2) counter and a K/2-bit shifter by K, it has one
// K-parametric kernel per direction for the block sizes that divide a
// plane word, K ∈ {4, 8, 16, 32}: encodeWords and decodeKernel. A K is
// specialized further only where a bench workload runs it and an
// end-to-end A/B shows the gain; today that is textK8 (textkernel.go),
// K=8 being the block size every workload runs at. Every other K
// encodes through encodeGeneric into the same kernelWriter, so one
// encode loop serves every block size. The generic decoder
// (decodeBlocksPartial) remains the fallback for other K, for exotic
// assignments, and for hostile streams. Both generic paths are the
// differential oracle the kernels are pinned against.
//
// The kernels get their speed from three ideas:
//
//  1. Word-batched classification. Blocks of the supported sizes never
//     straddle a 64-bit plane word (patterns are padded independently,
//     so block b of a pattern occupies bits [b·K, (b+1)·K) of that
//     pattern's planes). One word read yields 64/K whole blocks, and a
//     half is 0-compatible iff its val bits are zero, 1-compatible iff
//     its care&^val bits are zero — four flag bits that index a
//     16-entry case table. No per-trit work, no branches per trit.
//
//  2. Branchless appending. kernelWriter pre-zeroes its planes and
//     appends n ≤ 64 bits with two unconditional OR-writes per plane,
//     exploiting Go's defined x>>64 == 0 semantics (a spare word
//     absorbs the second write when the append does not straddle).
//
//  3. Table decode. The decoder indexes a flat LUT with the next
//     maxCode stream bits and gets (case, length, span) in one load,
//     then emits the whole block as one word append. Anything the fast
//     path is not sure about — an X inside a codeword window, an
//     unassigned LUT entry, a block running past the stream end —
//     abandons the fast decode and reruns the generic path so error
//     reporting stays byte-identical.

// caseTab maps the four half-compatibility flags to the 9C case:
// index = l0 | l1<<1 | r0<<2 | r1<<3 where l0/l1 (r0/r1) report the
// left (right) half 0-/1-compatible. Built in init from the same
// priority order as Classify, so the two can never disagree.
var caseTab [16]Case

// misTab, indexed by Case, packs the mismatch shape: bit 0 = left half
// shipped verbatim, bit 1 = right half shipped verbatim.
var misTab [NumCases + 1]uint8

// lvalTab / rvalTab, indexed by Case, hold the constant the decoder
// regenerates for a matched half: all-ones for 1-fill, zero for 0-fill
// (masked to the half width at use). Only valid for non-mismatch
// halves.
var lvalTab, rvalTab [NumCases + 1]uint64

func init() {
	for idx := range caseTab {
		caseTab[idx] = classifyFlags(idx&1 != 0, idx&2 != 0, idx&4 != 0, idx&8 != 0)
	}
	for cs := CaseAll0; cs <= CaseMisMis; cs++ {
		var m uint8
		if cs.LeftMismatch() {
			m |= 1
		}
		if cs.RightMismatch() {
			m |= 2
		}
		misTab[cs] = m
		if v, ok := cs.matchedLeft(); ok && v == bitvec.One {
			lvalTab[cs] = ^uint64(0)
		}
		if v, ok := cs.matchedRight(); ok && v == bitvec.One {
			rvalTab[cs] = ^uint64(0)
		}
		textTab8[cs] = newTextCase8(cs)
	}
}

// classifyFlags is the 9C priority switch over the four half
// compatibility flags; Classify derives the flags from a cube range,
// the encoders from plane words.
func classifyFlags(l0, l1, r0, r1 bool) Case {
	switch {
	case l0 && r0:
		return CaseAll0
	case l1 && r1:
		return CaseAll1
	case l0 && r1:
		return Case0Then1
	case l1 && r0:
		return Case1Then0
	case l0:
		return Case0ThenMis
	case r0:
		return CaseMisThen0
	case l1:
		return Case1ThenMis
	case r1:
		return CaseMisThen1
	default:
		return CaseMisMis
	}
}

// kernelCode is a codeword prepared for the branchless writer: the
// packed bits, the all-ones care mask of the same width, and the
// length.
type kernelCode struct {
	bits uint64
	mask uint64
	n    int
}

// maxLUTBits bounds the decode LUT at 2^11 entries; every canonical 9C
// assignment is far below it (max codeword length 5).
const maxLUTBits = 11

// kernelEncode is the encode entry point installed on a Codec at
// construction: every codec has one (encodeGeneric when K has no word
// kernel). The text entry point (kernelText, textkernel.go) is nil
// without a kernel.
type kernelEncode func(c *Codec, care, val []uint64, blocks int, w *kernelWriter, counts *Counts)

// initKernel prepares the kernel state: packed codeword masks, the
// repeated-C1 batch word, the decode LUT, and the dispatch functions.
// For K without a kernel the codec installs encodeGeneric, keeps klut
// and ktext nil, and every decode takes the generic path.
func (c *Codec) initKernel() {
	for i, p := range c.packed {
		c.kcodes[i] = kernelCode{bits: p.bits, mask: lowMask64(p.n), n: p.n}
		if p.n > c.maxCode {
			c.maxCode = p.n
		}
	}
	switch c.k {
	case 8:
		c.kenc, c.ktext = encodeWords, textK8
	case 4, 16, 32:
		c.kenc, c.ktext = encodeWords, textKernel
	default:
		c.kenc = encodeGeneric
		return
	}
	// An all-zero plane word means 64/K consecutive C1 blocks; when the
	// repeated C1 codeword fits one word, encodeWords emits it in a
	// single append.
	perWord := 64 / c.k
	c1 := c.kcodes[CaseAll0-1]
	if perWord*c1.n <= 64 {
		var bits uint64
		for i := 0; i < perWord; i++ {
			bits |= c1.bits << uint(i*c1.n)
		}
		c.kc1 = kernelCode{bits: bits, mask: lowMask64(perWord * c1.n), n: perWord * c1.n}
		c.kc1ok = true
	}
	if c.maxCode <= maxLUTBits {
		c.klut = buildCodeLUT(c.packed, c.maxCode, c.k/2)
		c.klutMask = lowMask64(c.maxCode)
	}
}

// buildCodeLUT builds the flat decode table: entry i (for every window
// whose low bits spell a codeword) packs case | length<<4 | span<<8,
// where span is the length plus the h-trit halves the case ships — the
// block's whole footprint in the stream. Unreachable windows (possible
// only for incomplete prefix codes) stay 0, which the decoder treats as
// "fall back to the generic path".
func buildCodeLUT(packed [NumCases]packedCode, maxCode, h int) []uint16 {
	lut := make([]uint16, 1<<uint(maxCode))
	for i, p := range packed {
		m := misTab[i+1]
		span := p.n + h*int(m&1+m>>1)
		e := uint16(i+1) | uint16(p.n)<<4 | uint16(span)<<8
		for hi := uint64(0); hi < 1<<uint(maxCode-p.n); hi++ {
			lut[p.bits|hi<<uint(p.n)] = e
		}
	}
	return lut
}

// lowMask64 returns a mask of the low n bits, 0 ≤ n ≤ 64.
func lowMask64(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}

// worstBits bounds the stream size of encoding the given block count:
// every block costs at most the longest codeword plus K verbatim bits.
func (c *Codec) worstBits(blocks int) int {
	return blocks * (c.maxCode + c.k)
}

// kernelWriter accumulates a ternary stream as raw pre-zeroed planes.
// append is branchless: two OR-writes per plane, with a spare word so
// the straddle write (shift ≥ 64 → 0 when off == 0) is always in
// bounds. reset reuses the backing across calls, clearing only the
// words the previous use touched — the workspace steady state
// allocates nothing.
type kernelWriter struct {
	care, val []uint64
	n         int // bits appended since reset
}

// reset prepares the writer for up to capBits of output. The previous
// contents (and any Cube taken from them) are invalidated.
func (w *kernelWriter) reset(capBits int) {
	words := capBits>>6 + 2 // ceil(capBits/64) + spare word, rounded up
	if cap(w.care) < words {
		w.care = make([]uint64, words)
		w.val = make([]uint64, words)
		w.n = 0
		return
	}
	w.care = w.care[:cap(w.care)]
	w.val = w.val[:cap(w.val)]
	hi := w.n>>6 + 2 // words the previous use may have touched
	if hi > len(w.care) {
		hi = len(w.care)
	}
	for i := 0; i < hi; i++ {
		w.care[i] = 0
		w.val[i] = 0
	}
	w.n = 0
}

// append writes the low n bits of the packed care/val words at the
// tail. The inputs must already be masked to n bits and satisfy
// val ⊆ care; all kernel call sites guarantee both.
func (w *kernelWriter) append(care, val uint64, n int) {
	wi, off := w.n>>6, uint(w.n)&63
	w.care[wi] |= care << off
	w.val[wi] |= val << off
	w.care[wi+1] |= care >> (64 - off)
	w.val[wi+1] |= val >> (64 - off)
	w.n += n
}

// appendRange appends trits [lo, lo+n) of the care/val planes verbatim;
// positions past the plane end read as zero, i.e. X padding.
func (w *kernelWriter) appendRange(care, val []uint64, lo, n int) {
	for ; n > 0; lo, n = lo+64, n-64 {
		m := lowMask64(n)
		w.append(window64(care, lo)&m, window64(val, lo)&m, min(64, n))
	}
}

// take wraps the accumulated planes as a Cube without copying. The cube
// aliases the writer's backing: it stays valid only until the next
// reset. One-shot callers drop the writer (the cube then owns the
// memory); workspace callers document the invalidation.
func (w *kernelWriter) take() *bitvec.Cube {
	return bitvec.CubeOfWords(w.n, w.care, w.val)
}

// takeCopy returns an independently-owned copy of the accumulated
// stream, for callers that will reuse the writer.
func (w *kernelWriter) takeCopy() *bitvec.Cube {
	return bitvec.NewCubeCopyWords(w.n, w.care, w.val)
}

// encBlock encodes one K-bit block given its packed care/val bits
// (already masked to K bits, pad bits zero): classify both halves
// branchlessly, append the codeword, append whatever the case ships
// verbatim. k, h and lh are the block size, half size and half mask.
func encBlock(w *kernelWriter, codes *[NumCases]kernelCode, counts *Counts, bc, bv uint64, k, h int, lh uint64) {
	zeros := bc &^ bv
	idx := b2i(bv&lh == 0) | b2i(zeros&lh == 0)<<1 |
		b2i(bv>>uint(h) == 0)<<2 | b2i(zeros>>uint(h) == 0)<<3
	cs := caseTab[idx]
	counts[cs-1]++
	p := &codes[cs-1]
	w.append(p.mask, p.bits, p.n)
	switch misTab[cs] {
	case 1: // left verbatim
		w.append(bc&lh, bv&lh, h)
	case 2: // right verbatim
		w.append(bc>>uint(h), bv>>uint(h), h)
	case 3: // both verbatim: one contiguous K-bit append
		w.append(bc, bv, k)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// encodeWords is the word kernel for every K that divides 64: it reads
// the planes a word (64/K blocks) at a time, with an all-zero-word
// fast path (every half 0-compatible ⇒ 64/K C1 blocks in one append)
// and a shorter walk over the final partial word. Bits past the cube
// end read as zero in both planes — exactly the "pad with X" rule,
// since X is 0-compatible first in priority order.
func encodeWords(c *Codec, care, val []uint64, blocks int, w *kernelWriter, counts *Counts) {
	k, h := c.k, c.k/2
	lh, bm := lowMask64(h), lowMask64(k)
	perWord := 64 / k
	for wi := 0; blocks > 0; wi++ {
		cw, vw := care[wi], val[wi]
		if vw == 0 && c.kc1ok && blocks >= perWord {
			counts[CaseAll0-1] += perWord
			w.append(c.kc1.mask, c.kc1.bits, c.kc1.n)
			blocks -= perWord
			continue
		}
		n := min(blocks, perWord)
		blocks -= n
		for sh := 0; sh < n*k; sh += k {
			encBlock(w, &c.kcodes, counts, cw>>uint(sh)&bm, vw>>uint(sh)&bm, k, h, lh)
		}
	}
}

// encodeGeneric is the block encoder for every K without a word
// kernel, any even size including blocks wider than a word: each half
// is classified by scanning its plane bits a word at a time, then the
// codeword and any mismatch halves are appended as in encBlock.
func encodeGeneric(c *Codec, care, val []uint64, blocks int, w *kernelWriter, counts *Counts) {
	k, h := c.k, c.k/2
	for off := 0; blocks > 0; blocks, off = blocks-1, off+k {
		l0, l1 := halfFlags(care, val, off, h)
		r0, r1 := halfFlags(care, val, off+h, h)
		cs := classifyFlags(l0, l1, r0, r1)
		counts[cs-1]++
		p := &c.kcodes[cs-1]
		w.append(p.mask, p.bits, p.n)
		if cs.LeftMismatch() {
			w.appendRange(care, val, off, h)
		}
		if cs.RightMismatch() {
			w.appendRange(care, val, off+h, h)
		}
	}
}

// halfFlags reports whether trits [lo, lo+n) of the planes are
// 0-compatible (no 1) and 1-compatible (no 0).
func halfFlags(care, val []uint64, lo, n int) (zeroOK, oneOK bool) {
	var ones, zeros uint64
	for ; n > 0; lo, n = lo+64, n-64 {
		m := lowMask64(n)
		cw, vw := window64(care, lo)&m, window64(val, lo)&m
		ones |= vw
		zeros |= cw &^ vw
	}
	return ones == 0, zeros == 0
}

// window64 returns the 64 stream bits starting at pos (positions past
// the end read as zero).
func window64(words []uint64, pos int) uint64 {
	wi, off := pos>>6, uint(pos)&63
	if wi >= len(words) {
		return 0
	}
	w := words[wi] >> off
	if off != 0 && wi+1 < len(words) {
		w |= words[wi+1] << (64 - off)
	}
	return w
}

// decodeKernel is the plane decode kernel for every kernel K: it
// consumes blocks block encodings from the raw stream planes starting
// at bit pos, appending K decoded trits per block to w, and returns the
// new position. It makes textKernel's and countBlocks' validity checks
// and returns ok=false the moment a block fails one — an unassigned
// LUT window, an X or a truncation inside a codeword (care bits below
// the codeword length not all ones), or a span running past the stream
// end. On ok=false the caller reruns the generic decoder from the same
// position, so the classified error (and its bit position) is the
// generic decoder's. A block's codeword and shipped halves span at most
// maxLUTBits+32 bits, so one 64-bit window read covers it.
func decodeKernel(c *Codec, scare, sval []uint64, slen, pos, blocks int, w *kernelWriter) (int, bool) {
	k, h := c.k, uint(c.k/2)
	lh, bm := lowMask64(int(h)), lowMask64(k)
	lut, lmask := c.klut, c.klutMask
	for b := 0; b < blocks; b++ {
		cw, vw := window64(scare, pos), window64(sval, pos)
		e := lut[vw&lmask]
		n := uint(e >> 4 & 0xf)
		cmask := uint64(1)<<n - 1
		if n == 0 || cw&cmask != cmask || pos+int(e>>8) > slen {
			return pos, false
		}
		cs := Case(e & 0xf)
		pos += int(e >> 8)
		cw, vw = cw>>n, vw>>n
		switch misTab[cs] {
		case 0:
			w.append(bm, lvalTab[cs]&lh|rvalTab[cs]&lh<<h, k)
		case 1: // left shipped
			w.append(cw&lh|lh<<h, vw&lh|rvalTab[cs]&lh<<h, k)
		case 2: // right shipped
			w.append(lh|cw<<h&bm, lvalTab[cs]&lh|vw<<h&bm, k)
		default:
			w.append(cw&bm, vw&bm, k)
		}
	}
	return pos, true
}

// countBlocks walks up to blocks block encodings from bit pos with one
// LUT lookup per codeword, tallying the cases and skipping the shipped
// halves, under the decode kernels' validity checks. It stops before
// the first block it does not vouch for and returns that block's
// position and index (blocks when every block walked cleanly).
func countBlocks(c *Codec, scare, sval []uint64, slen, pos, blocks int, counts *Counts) (int, int) {
	lut, lmask := c.klut, c.klutMask
	for b := 0; b < blocks; b++ {
		cw, vw := window64(scare, pos), window64(sval, pos)
		e := lut[vw&lmask]
		n := uint(e >> 4 & 0xf)
		cmask := uint64(1)<<n - 1
		next := pos + int(e>>8)
		if n == 0 || cw&cmask != cmask || next > slen {
			return pos, b
		}
		counts[e&0xf-1]++
		pos = next
	}
	return pos, blocks
}

// hasDecodeKernel reports whether the fast table decoders are available:
// initKernel builds the LUT only for a kernel K and a LUT-sized
// assignment.
func (c *Codec) hasDecodeKernel() bool { return c.klut != nil }
