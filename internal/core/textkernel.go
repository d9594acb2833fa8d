package core

import (
	"encoding/binary"

	"repro/internal/bitvec"
)

// This file is the decode-to-text kernel: the paper's decoder (Fig. 1/2)
// has no pattern buffer — it shifts each decoded half straight into the
// scan chain — and /decode mirrors it by writing each half straight
// into the response's 01X bytes. A matched half (cases 1–4 and the
// matched side of 5–8) is one fill constant of '0' or '1' bytes; a
// shipped half goes through bitvec's nibble table. There is no plane
// writer, no cube and no copy in between.
//
// The text kernels read the stream exactly as the plane kernel
// (decodeKernel) does and make exactly its validity checks — an unassigned
// LUT window, a codeword whose care bits are not all ones, shipped data
// running past the stream end — so on ok=false the caller reruns the
// generic decoder from the same position and errors stay
// byte-identical.
//
// Cases 1–4 ship no data: such a block is its codeword alone, and on
// the six Mintest profiles at K=8 case 1 (one bit under the default
// code) is 67–93% of all blocks. So the K=8 kernel first looks the
// next eight stream bits up in a per-codec run table (buildRunTable)
// that decodes a whole run of case 1–4 codewords, up to eight blocks,
// per load; on those profiles run lookups decode 72–93% of the blocks,
// 4.1–6.9 per lookup (TestRunCoverageMintest). Anything a run does not
// cover takes the one-block step and its checks.

// kernelText is the decode-to-text entry point installed on a kernel
// codec: it decodes blocks blocks from bit pos of the stream planes
// into out, K bytes per block, and returns the new position. out must
// hold blocks·K bytes plus 8 bytes of slack, which a kernel may
// overwrite.
type kernelText func(c *Codec, scare, sval []uint64, slen, pos, blocks int, out []byte) (int, bool)

// textSlack is the spare tail a kernelText may write past blocks·K.
const textSlack = 8

// textFill returns eight bytes of the character a matched half
// regenerates, given its lvalTab/rvalTab constant: '1' for all ones,
// '0' for zero.
func textFill(fill uint64) uint64 {
	return 0x3030303030303030 | fill&0x0101010101010101
}

// text8 returns the 01X text of the low eight trits of the packed
// care/val words, trit 0 in the low byte.
func text8(care, val uint64) uint64 {
	return uint64(bitvec.TextNibble(care, val)) | uint64(bitvec.TextNibble(care>>4, val>>4))<<32
}

// textCase8 renders one case's block for the K=8 text kernel: fill
// holds the '0'/'1' constants of its matched halves, and the text of
// the trits after the codeword lands in the shipped half (mask) after
// a shift of shift bits — 32 when only the right half ships.
type textCase8 struct {
	fill, mask uint64
	shift      uint
}

// textTab8, indexed by Case, is built with the other case tables in
// kernel.go's init.
var textTab8 [NumCases + 1]textCase8

// newTextCase8 derives a case's textCase8 from its misTab and
// lvalTab/rvalTab entries.
func newTextCase8(cs Case) textCase8 {
	const lo = uint64(1)<<32 - 1
	l, r := textFill(lvalTab[cs])&lo, textFill(rvalTab[cs])<<32
	switch misTab[cs] {
	case 0:
		return textCase8{fill: l | r}
	case 1:
		return textCase8{fill: r, mask: lo}
	case 2:
		return textCase8{fill: l, mask: lo << 32, shift: 32}
	default:
		return textCase8{mask: ^uint64(0)}
	}
}

// runFill8, indexed by case-1 for cases 1–4, is the text of a whole
// K=8 block of that case: both halves are fill constants.
var runFill8 [4]uint64

// buildRunTable builds the K=8 run table of a codec's codewords.
// Entry w, for the eight stream bits w (val plane, first bit lowest),
// describes the longest run of whole case 1–4 codewords those bits
// spell from bit 0: bits 0–3 hold the block count m (0–8), bits 4–7
// the bits the run consumes, and bits 8+2j–9+2j block j's case minus
// one. m = 0 when the first codeword is of another case, does not end
// within the eight bits, or (in an incomplete code) does not exist.
//
// The run of an L-bit prefix is its first codeword, of n ≤ L bits,
// followed by the run of the L−n bits after it. So the table is built
// for L = 1..8 in turn, each case 1–4 codeword writing the prefixes
// that begin with it from the shorter runs already built; prefixes of
// L < 8 bits live in part at 1<<L | bits. The code is prefix-free, so
// every prefix is written at most once.
func buildRunTable(codes *[NumCases]kernelCode) *[256]uint32 {
	var part [256]uint32
	run := new([256]uint32)
	for l := 1; l <= 8; l++ {
		dst := run[:]
		if l < 8 {
			dst = part[1<<l:][:1<<l]
		}
		for cs := CaseAll0; cs <= Case1Then0; cs++ {
			p := codes[cs-1]
			if p.n > l {
				continue
			}
			// Prepending one block: the count and bits fields add
			// without carry (both stay ≤ 8), the cases shift up a slot.
			head := 1 | uint32(p.n)<<4 | uint32(cs-1)<<8
			for s, r := range part[1<<(l-p.n):][:1<<(l-p.n)] {
				dst[int(p.bits)|s<<p.n] = head + r&0xff + r>>8<<10
			}
		}
	}
	return run
}

// textK8 is the K=8 text kernel, the block size /encode defaults to.
// It keeps the next stream bits in registers, refilled a word at a
// time. While eight or more blocks of the row remain it first looks
// the next eight bits up in the run table: a run of m ≥ 1 blocks whose
// codeword bits are all care and end inside the stream is written as
// eight unconditional 8-byte stores, of which blocks m..7 are rewritten
// by the blocks after the run, all still inside the row. Otherwise a
// block costs one LUT lookup and one 8-byte store with no branch on
// its case, under the plane kernel's checks.
func textK8(c *Codec, scare, sval []uint64, slen, pos, blocks int, out []byte) (int, bool) {
	const k = 8
	lut, lmask, run := c.klut, c.klutMask, c.krun
	var cw, vw uint64 // stream planes from pos on; avail bits are real
	avail := 0
	for b := 0; b < blocks; {
		if avail < 32 { // a block spans at most MaxCodeLen+k < 32 bits
			cw, vw, avail = window64(scare, pos), window64(sval, pos), 64
		}
		if blocks-b >= 8 {
			r := run[vw&0xff]
			nb := uint(r >> 4 & 0xf)
			rmask := uint64(1)<<nb - 1
			if m := int(r & 0xf); m != 0 && cw&rmask == rmask && pos+int(nb) <= slen {
				o, cs := out[b*k:][:8*k], r>>8
				binary.LittleEndian.PutUint64(o[0:], runFill8[cs&3])
				binary.LittleEndian.PutUint64(o[8:], runFill8[cs>>2&3])
				binary.LittleEndian.PutUint64(o[16:], runFill8[cs>>4&3])
				binary.LittleEndian.PutUint64(o[24:], runFill8[cs>>6&3])
				binary.LittleEndian.PutUint64(o[32:], runFill8[cs>>8&3])
				binary.LittleEndian.PutUint64(o[40:], runFill8[cs>>10&3])
				binary.LittleEndian.PutUint64(o[48:], runFill8[cs>>12&3])
				binary.LittleEndian.PutUint64(o[56:], runFill8[cs>>14&3])
				b, pos, avail = b+m, pos+int(nb), avail-int(nb)
				cw, vw = cw>>nb, vw>>nb
				continue
			}
		}
		e := lut[vw&lmask]
		n, span := uint(e>>4&0xf), uint(e>>8)
		cmask := uint64(1)<<n - 1
		if n == 0 || cw&cmask != cmask || pos+int(span) > slen {
			return pos, false
		}
		tc := &textTab8[e&0xf]
		binary.LittleEndian.PutUint64(out[b*k:], tc.fill|text8(cw>>n, vw>>n)<<tc.shift&tc.mask)
		b, pos, avail = b+1, pos+int(span), avail-int(span)
		cw, vw = cw>>span, vw>>span
	}
	return pos, true
}

// textKernel is the text kernel for the other kernel block sizes
// (K ∈ {4, 16, 32}). Each half is written in 8-byte stores; a half
// shorter than eight trits writes past its end, and the next store
// (or the slack) absorbs the excess.
func textKernel(c *Codec, scare, sval []uint64, slen, pos, blocks int, out []byte) (int, bool) {
	k, h := c.k, c.k/2
	lut, lmask := c.klut, c.klutMask
	for b := 0; b < blocks; b++ {
		cw, vw := window64(scare, pos), window64(sval, pos)
		e := lut[vw&lmask]
		n := uint(e >> 4 & 0xf)
		cmask := uint64(1)<<n - 1
		if n == 0 || cw&cmask != cmask || pos+int(e>>8) > slen {
			return pos, false
		}
		cs, m := Case(e&0xf), misTab[e&0xf]
		pos += int(e >> 8)
		cw, vw = cw>>n, vw>>n
		lf, rf := textFill(lvalTab[cs]), textFill(rvalTab[cs])
		for j := 0; j < h; j += 8 {
			t := lf
			if m&1 != 0 {
				t = text8(cw>>uint(j), vw>>uint(j))
			}
			binary.LittleEndian.PutUint64(out[b*k+j:], t)
		}
		if m&1 != 0 {
			cw, vw = cw>>uint(h), vw>>uint(h)
		}
		for j := 0; j < h; j += 8 {
			t := rf
			if m&2 != 0 {
				t = text8(cw>>uint(j), vw>>uint(j))
			}
			binary.LittleEndian.PutUint64(out[b*k+h+j:], t)
		}
	}
	return pos, true
}
