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

// textK8 is the K=8 text kernel, the block size /encode defaults to.
// It keeps the next stream bits in registers, refilled a word at a
// time, so a block costs one LUT lookup and one 8-byte store with no
// branch on its case.
func textK8(c *Codec, scare, sval []uint64, slen, pos, blocks int, out []byte) (int, bool) {
	const k = 8
	lut, lmask := c.klut, c.klutMask
	var cw, vw uint64 // stream planes from pos on; avail bits are real
	avail := 0
	for b := 0; b < blocks; b++ {
		if avail < 32 { // a block spans at most maxLUTBits+k < 32 bits
			cw, vw, avail = window64(scare, pos), window64(sval, pos), 64
		}
		e := lut[vw&lmask]
		n, span := uint(e>>4&0xf), uint(e>>8)
		cmask := uint64(1)<<n - 1
		if n == 0 || cw&cmask != cmask || pos+int(span) > slen {
			return pos, false
		}
		tc := &textTab8[e&0xf]
		binary.LittleEndian.PutUint64(out[b*k:], tc.fill|text8(cw>>n, vw>>n)<<tc.shift&tc.mask)
		pos, avail = pos+int(span), avail-int(span)
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
