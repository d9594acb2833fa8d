package core

import (
	"math/bits"

	"repro/internal/bitvec"
)

// This file is the word-parallel hot path of the 9C codec. Like the
// paper's decoder, whose FSM is the same for every block size and only
// sizes a log2(K/2) counter and a K/2-bit shifter by K, it has one
// K-parametric kernel per direction for the block sizes that divide a
// plane word, K ∈ {4, 8, 16, 32}: wordEnc and decodeKernel. wordEnc
// has two feeders: the plane words of a parsed Set (encodePlanes, for
// Codec.Encode and EncodeCube) and /encode's 01X text, parsed 64 trits
// at a time straight from the row bytes (EncodeText, textencode.go),
// which refuses any body it does not vouch for so the caller falls
// back to tcube.Read and Encode. A K is specialized further only where
// a bench workload runs it and an end-to-end A/B shows the gain; today
// that is textK8 (textkernel.go), K=8 being the block size every
// workload runs at. Every other K encodes through encodeGeneric into
// the same kernelWriter and has no text feeder. The generic decoder
// (decodeBlocksPartial) remains the fallback for other K, for exotic
// assignments, and for hostile streams. Both generic paths are the
// differential oracle the kernels are pinned against.
//
// The kernels get their speed from three ideas:
//
//  1. Word-batched classification. Blocks of the supported sizes never
//     straddle a 64-bit plane word (patterns are padded independently,
//     so block b of a pattern occupies bits [b·K, (b+1)·K) of that
//     pattern's planes). A half holds a 1 iff its val bits are nonzero
//     and a 0 iff its care&^val bits are; one SWAR "nonzero per K/2-bit
//     field" test per plane gives those four flags for every block of
//     the word at once, as a 4-bit op-table index per block.
//
//  2. Two blocks per lookup into a register accumulator. At K ≤ 16 two
//     neighbouring blocks' flag nibbles index a per-codec 256-entry
//     slot table whose entry holds both codewords joined, where each
//     block's shipped halves land, the slot's total length and its
//     case counts; at K = 32 a slot is one block. Cases 1–4 ship no
//     data, and on the Mintest profiles most blocks are cases 1–4, so
//     most slots emit two codewords as one constant. Each slot is one
//     OR into a 64-bit care/val accumulator, with no branch on its
//     cases; the planes see only whole-word stores. The case counts
//     are summed as 7-bit fields of one word and flushed before any
//     can overflow, so the paper's N1..N9 cost one add per slot.
//     kernelWriter pre-zeroes its planes, so the generic path appends
//     with two unconditional OR-writes per plane instead.
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
	for cs := CaseAll0; cs <= Case1Then0; cs++ {
		runFill8[cs-1] = textTab8[cs].fill
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

// kernelEncode is the per-pattern plane encode installed on a Codec at
// construction: encodePlanes for a kernel K, encodeGeneric otherwise.
// The decode-to-text entry point (kernelText, textkernel.go) is nil
// without a kernel.
type kernelEncode func(c *Codec, care, val []uint64, blocks int, w *kernelWriter, counts *Counts)

// initKernel prepares the kernel state: packed codeword masks, the
// encode op table, the repeated-C1 batch word, the decode LUT (and at
// K=8 its run table), and the dispatch functions. For K without a
// kernel the codec installs encodeGeneric, keeps kops, klut and ktext
// nil, and every decode takes the generic path. A kernel K is at most
// 32 and a codeword at most MaxCodeLen bits, so a block's stream image
// always fits wordEnc's 64-bit accumulator.
func (c *Codec) initKernel() {
	for i, p := range c.packed {
		c.kcodes[i] = kernelCode{bits: p.bits, mask: lowMask64(p.n), n: p.n}
		if p.n > c.maxCode {
			c.maxCode = p.n
		}
	}
	switch c.k {
	case 8:
		c.ktext = textK8
	case 4, 16, 32:
		c.ktext = textKernel
	default:
		c.kenc = encodeGeneric
		return
	}
	c.kenc, c.kops = encodePlanes, newBlockOps(&c.kcodes, c.k)
	c.kslots = newSlotOps(c.kops, c.k)
	// An all-zero plane word means 64/K consecutive C1 blocks; when the
	// repeated C1 codeword fits one word, the kernel emits it in a
	// single append.
	perWord := 64 / c.k
	c1 := c.kcodes[CaseAll0-1]
	if n := perWord * c1.n; n <= 64 {
		c.kc1 = kernelCode{bits: repeat64(c1.bits, c1.n) & lowMask64(n), mask: lowMask64(n), n: n}
		c.kc1ok = true
	}
	c.klut = buildCodeLUT(c.packed, c.maxCode, c.k/2)
	c.klutMask = lowMask64(c.maxCode)
	if c.k == 8 {
		c.krun = buildRunTable(&c.kcodes)
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

// grow makes room for moreBits past the current length, keeping what
// is written: when the planes are short it moves them into new ones at
// least twice as long, so a writer grown row by row copies each word a
// bounded number of times.
func (w *kernelWriter) grow(moreBits int) {
	words := (w.n+moreBits)>>6 + 2
	if words <= len(w.care) {
		return
	}
	words = max(words, 2*len(w.care))
	used := min(w.n>>6+2, len(w.care)) // the words append may have touched
	care, val := make([]uint64, words), make([]uint64, words)
	copy(care, w.care[:used])
	copy(val, w.val[:used])
	w.care, w.val = care, val
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

// blockOp is one entry of a codec's encode op tables: everything the
// word kernel needs to emit one slot of blocks in one step. A slot is
// two blocks at K ≤ 16 and one at K = 32. The stream image is block
// a's codeword, a's shipped trits, then block b's codeword and shipped
// trits. The codewords are constants (all care bits set, val = code),
// joined in code/codeMask. A block ships the trits under its data mask
// (a half or the whole block, or none) of the slot's care/val words,
// rotated left into place by its rot. cnt adds the slot's blocks to a
// packed case count, one countBits-bit field per case.
type blockOp struct {
	cnt            uint64
	dataA, dataB   uint64 // the trits a and b ship, in the slot's words
	code, codeMask uint32
	rotA, rotB     uint8 // where the shipped trits land, less where they sit, mod 64
	n              uint8 // total stream trits of the slot
}

// image is op's stream image over the slot's care or val word w.
func (op *blockOp) image(code uint32, w uint64) uint64 {
	return uint64(code) | bits.RotateLeft64(w&op.dataA, int(op.rotA)) | bits.RotateLeft64(w&op.dataB, int(op.rotB))
}

// countBits is the width of one case's field in a packed case count:
// nine fields fit a uint64, and a field holds up to countMax blocks.
const (
	countBits = 7
	countMax  = 1<<countBits - 1
)

// newBlockOps builds the op table, indexed by the flag nibble the word
// kernel computes for a block: bit 0 = the left half holds a 1, bit 1
// = it holds a 0, bits 2 and 3 the same for the right half. That is
// the complement of caseTab's index, so the two share one priority
// order. A mismatch half ships from its place in the block, right
// after the codeword.
func newBlockOps(codes *[NumCases]kernelCode, k int) *[16]blockOp {
	h := k / 2
	ops := new([16]blockOp)
	for nidx := range ops {
		cs := caseTab[nidx^15]
		p := codes[cs-1]
		op := blockOp{code: uint32(p.bits), codeMask: uint32(p.mask), rotA: uint8(p.n),
			cnt: 1 << (countBits * (cs - 1)), n: uint8(p.n + cs.DataBits(k))}
		switch misTab[cs] {
		case 1:
			op.dataA = lowMask64(h)
		case 2:
			op.dataA, op.rotA = lowMask64(h)<<h, uint8(p.n-h)&63
		case 3:
			op.dataA = lowMask64(k)
		}
		ops[nidx] = op
	}
	return ops
}

// slotBlocks is the blocks one step of the word kernel covers: two,
// or one at K = 32, where two blocks can need 80 trits, more than the
// 64-bit accumulator holds.
func slotBlocks(k int) int {
	if k > 16 {
		return 1
	}
	return 2
}

// newSlotOps builds the slot table, indexed by two blocks' flag
// nibbles, the first block's in bits 0-3: the two blocks' ops joined,
// at most 2·(MaxCodeLen+16) trits. At K = 32 a slot is one block, and
// the entry is the first nibble's op.
func newSlotOps(ops *[16]blockOp, k int) *[256]blockOp {
	slots := new([256]blockOp)
	for i := range slots {
		a, b := ops[i&15], ops[i>>4]
		if slotBlocks(k) == 1 {
			slots[i] = a
			continue
		}
		// b's trits sit K higher in the slot and land a.n higher.
		a.dataB, a.rotB = b.dataA<<k, (b.rotA+a.n-uint8(k))&63
		a.cnt += b.cnt
		a.code |= b.code << a.n
		a.codeMask |= b.codeMask << a.n
		a.n += b.n
		slots[i] = a
	}
	return slots
}

// repeat64 repeats the low w bits of x (zero above them) across the
// word, the top copy cut at bit 63.
func repeat64(x uint64, w int) uint64 {
	for ; w < 64; w *= 2 {
		x |= x << uint(w)
	}
	return x
}

// wordEnc is the encode kernel for every K that divides 64. It holds
// the writer's planes and the partial output word in a register pair
// (accC, accV, nacc bits), so a step costs one table load and one OR
// into the accumulator, and the planes see only whole-word stores.
// Load it from a writer with wordEncoder and store it back with close.
type wordEnc struct {
	c          *Codec
	care, val  []uint64 // the writer's planes
	wi         int      // the plane word accC/accV will be stored to
	accC, accV uint64
	nacc       uint   // valid low bits of accC/accV, < 64
	cnt        uint64 // case counts not yet in counts, packed
	left       int    // words encode may add to cnt before a flush
	counts     *Counts
}

// wordEncoder loads w's tail into a kernel that appends after it and
// adds its case counts to counts.
func (c *Codec) wordEncoder(w *kernelWriter, counts *Counts) wordEnc {
	wi := w.n >> 6
	return wordEnc{c: c, care: w.care, val: w.val, wi: wi,
		accC: w.care[wi], accV: w.val[wi], nacc: uint(w.n) & 63, counts: counts}
}

// reserve makes room in w for bits more output, growing its planes
// when they are short.
func (e *wordEnc) reserve(w *kernelWriter, bits int) {
	if (e.wi<<6+int(e.nacc)+bits)>>6+2 <= len(e.care) {
		return
	}
	e.close(w)
	w.grow(bits)
	*e = e.c.wordEncoder(w, e.counts)
}

// close stores the partial word back, sets w's length and flushes the
// case counts.
func (e *wordEnc) close(w *kernelWriter) {
	e.care[e.wi], e.val[e.wi] = e.accC, e.accV
	w.n = e.wi<<6 + int(e.nacc)
	addCounts(e.counts, e.cnt)
	e.cnt, e.left = 0, 0
}

// encode appends the encodings of blocks blocks read from the care/val
// plane words, 64/K blocks per word. Bits past the data read as zero in
// both planes — exactly the "pad with X" rule, since X is 0-compatible
// first in priority order.
//
// One SWAR pass per word classifies all of its blocks at once. A K/2-bit
// field is nonzero iff (x&low + low | x) has its top bit set (low holds
// the lower K/2-1 bits of every field, so the add carries into the top
// bit and never out of the field). Applied to val ("holds a 1") and to
// care&^val ("holds a 0"), the four top bits of a block, shifted down to
// its bits 0..3, are the block's op-table index. ORing in the next
// block's index at bits 4..7 gives the slot-table index of the slot
// that starts there, so each slot shifts the index word by the trits it
// consumes, as it does the planes. Case counts accumulate as the slots'
// packed increments and are flushed into counts every countMax/(64/K)
// words, before any field can pass countMax. An all-zero val word is
// 64/K C1 blocks and, when their codewords fit one word, one append.
func (e *wordEnc) encode(care, val []uint64, blocks int) {
	c, ops, slots := e.c, e.c.kops, e.c.kslots
	k := uint(c.k)
	h := k / 2
	perWord := 64 / int(k)
	per := slotBlocks(c.k)
	slotBits := uint(per) * k & 63    // 8 to 32; the mask spares the shifts a range check
	hiL := repeat64(1<<(h-1), int(k)) // top bit of every left half
	hiR := hiL << h                   // top bit of every right half
	low := ^(hiL | hiR)               // the other bits of every half
	dst, dstV, wi := e.care, e.val, e.wi
	accC, accV, nacc := e.accC, e.accV, e.nacc
	cnt, left := e.cnt, e.left
	for i := 0; blocks > 0; i++ {
		if left == 0 {
			addCounts(e.counts, cnt)
			cnt, left = 0, countMax/perWord
		}
		left--
		cw, vw := care[i], val[i]
		n := min(blocks, perWord)
		blocks -= n
		if vw == 0 && n == perWord && c.kc1ok {
			cnt += uint64(perWord)
			b := c.kc1
			accC |= b.mask << nacc
			accV |= b.bits << nacc
			if nacc += uint(b.n); nacc >= 64 {
				dst[wi], dstV[wi] = accC, accV
				wi++
				nacc -= 64
				// A 64-trit batch shifts by 64 here, which yields 0.
				accC, accV = b.mask>>(uint(b.n)-nacc), b.bits>>(uint(b.n)-nacc)
			}
			continue
		}
		ones := (vw&low + low | vw) & (hiL | hiR)
		zw := cw &^ vw
		zeros := (zw&low + low | zw) & (hiL | hiR)
		idx := (ones&hiL)>>(h-1) | (zeros&hiL)>>(h-2) | (ones&hiR)>>(k-3) | (zeros&hiR)>>(k-4)
		idx |= idx >> (k - 4)
		for ; n > 0; n -= per {
			op := &slots[idx&255]
			if n < per {
				op = &ops[idx&15] // a row's odd last block
			}
			bc, bv := op.image(op.codeMask, cw), op.image(op.code, vw)
			accC |= bc << (nacc & 63)
			accV |= bv << (nacc & 63)
			if nacc += uint(op.n); nacc >= 64 {
				dst[wi], dstV[wi] = accC, accV
				wi++
				nacc -= 64
				sh := (uint(op.n) - nacc) & 63 // in [1, 63]: a slot is < 64 trits
				accC, accV = bc>>sh, bv>>sh
			}
			cnt += op.cnt
			idx, cw, vw = idx>>slotBits, cw>>slotBits, vw>>slotBits
		}
	}
	e.wi, e.accC, e.accV, e.nacc = wi, accC, accV, nacc
	e.cnt, e.left = cnt, left
}

// addCounts adds a packed case count to counts.
func addCounts(counts *Counts, cnt uint64) {
	for i := range counts {
		counts[i] += int(cnt >> (countBits * i) & countMax)
	}
}

// encodePlanes is the plane feeder of the word kernel: one pattern's
// care/val words straight into w.
func encodePlanes(c *Codec, care, val []uint64, blocks int, w *kernelWriter, counts *Counts) {
	e := c.wordEncoder(w, counts)
	e.encode(care, val, blocks)
	e.close(w)
}

// encodeGeneric is the block encoder for every K without a word
// kernel, any even size including blocks wider than a word: each half
// is classified by scanning its plane bits a word at a time, then the
// codeword and any mismatch halves are appended.
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
// MaxCodeLen+32 bits, so one 64-bit window read covers it.
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
// initKernel builds the LUT only for a kernel K.
func (c *Codec) hasDecodeKernel() bool { return c.klut != nil }
