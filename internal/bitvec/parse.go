package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// The 01X parser reads eight text bytes per 64-bit load. The eight
// loads of a 64-byte chunk are merged into one word of per-byte flags
// and an 8x8 bit transpose turns the flags into packed care/val words,
// so a 64-trit word costs eight loads instead of 64 bounds-checked Set
// calls.
//
// Canonical text (the bytes 0, 1 and X that Set.Write, AppendText and
// the load generators write) takes a fast path: of those three bytes
// only X has bit 3 set and only 1 has bit 0 set, so care is ¬bit3 and
// val is bit0, two mask operations per load. The path then checks
// that each byte equals the canonical image of its two flags, which
// holds exactly for 0, 1 and X. Any chunk that fails the check (x, -,
// or a bad byte) is classified again by exact SWAR byte-equality tests,
// so the results and errors of other text are unchanged.

const (
	lsbBytes = 0x0101010101010101 // bit 0 of every byte
	msbBytes = 0x8080808080808080 // bit 7 of every byte
	lowBytes = 0x7f7f7f7f7f7f7f7f // bits 0-6 of every byte
)

// zeroBytes sets bit 7 of each byte of x that is zero and clears every
// other bit. It is exact: (b&0x7f)+0x7f never carries out of a byte.
func zeroBytes(x uint64) uint64 {
	return ^((x&lowBytes + lowBytes) | x) & msbBytes
}

// classify8 flags the eight bytes of x in bit 7 of each byte: c where
// the byte is '0' or '1', v where it is '1', and bad where it is none
// of 0, 1, x, X or '-'.
func classify8(x uint64) (c, v, bad uint64) {
	c = zeroBytes(x&^lsbBytes ^ '0'*lsbBytes)                                 // 0x30 or 0x31
	dc := zeroBytes(x|0x20*lsbBytes^'x'*lsbBytes) | zeroBytes(x^'-'*lsbBytes) // x, X or -
	return c, c & (x << 7), ^(c | dc) & msbBytes
}

// transpose8 transposes x as an 8x8 bit matrix, bit 8i+k to bit 8k+i
// (three delta swaps, Hacker's Delight 7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}

// Parse64 classifies 64 text bytes: bit j of care/val describes byte j
// as a trit, and bit j of bad is set where byte j is not 01X text.
// Load k's flag for byte i, moved to bit 8i+k, lands at bit 8k+i after
// the transpose. The eight loads are unrolled: constant shifts keep the
// chains short.
func Parse64(p *[64]byte) (care, val, bad uint64) {
	x0 := binary.LittleEndian.Uint64(p[0:])
	x1 := binary.LittleEndian.Uint64(p[8:])
	x2 := binary.LittleEndian.Uint64(p[16:])
	x3 := binary.LittleEndian.Uint64(p[24:])
	x4 := binary.LittleEndian.Uint64(p[32:])
	x5 := binary.LittleEndian.Uint64(p[40:])
	x6 := binary.LittleEndian.Uint64(p[48:])
	x7 := binary.LittleEndian.Uint64(p[56:])
	if noncanon(x0)|noncanon(x1)|noncanon(x2)|noncanon(x3)|noncanon(x4)|noncanon(x5)|noncanon(x6)|noncanon(x7) != 0 {
		return parse64Exact(p)
	}
	const b3 = 8 * lsbBytes // the X flag, bit 3 of every byte
	care = ^transpose8(x0&b3>>3 | x1&b3>>2 | x2&b3>>1 | x3&b3 | x4&b3<<1 | x5&b3<<2 | x6&b3<<3 | x7&b3<<4)
	if val = x0&lsbBytes | x1&lsbBytes<<1 | x2&lsbBytes<<2 | x3&lsbBytes<<3 |
		x4&lsbBytes<<4 | x5&lsbBytes<<5 | x6&lsbBytes<<6 | x7&lsbBytes<<7; val != 0 {
		val = transpose8(val)
	}
	return care, val, 0
}

// noncanon is zero iff every byte of x is canonical text, the image of
// its flags: 0x58 where bit 3 (X) is set, else 0x30 or 0x31.
func noncanon(x uint64) uint64 {
	xs := x >> 3 & lsbBytes
	return (x ^ '0'*lsbBytes ^ xs*('X'^'0')) &^ (lsbBytes ^ xs)
}

// parse64Exact is Parse64 for any bytes: the exact classifier, whose
// load k leaves its flag for byte i at bit 8i+7, shifted right by 7-k.
func parse64Exact(p *[64]byte) (care, val, bad uint64) {
	c0, v0, b0 := classify8(binary.LittleEndian.Uint64(p[0:]))
	c1, v1, b1 := classify8(binary.LittleEndian.Uint64(p[8:]))
	c2, v2, b2 := classify8(binary.LittleEndian.Uint64(p[16:]))
	c3, v3, b3 := classify8(binary.LittleEndian.Uint64(p[24:]))
	c4, v4, b4 := classify8(binary.LittleEndian.Uint64(p[32:]))
	c5, v5, b5 := classify8(binary.LittleEndian.Uint64(p[40:]))
	c6, v6, b6 := classify8(binary.LittleEndian.Uint64(p[48:]))
	c7, v7, b7 := classify8(binary.LittleEndian.Uint64(p[56:]))
	care = c0>>7 | c1>>6 | c2>>5 | c3>>4 | c4>>3 | c5>>2 | c6>>1 | c7
	val = v0>>7 | v1>>6 | v2>>5 | v3>>4 | v4>>3 | v5>>2 | v6>>1 | v7
	bad = b0>>7 | b1>>6 | b2>>5 | b3>>4 | b4>>3 | b5>>2 | b6>>1 | b7
	if bad != 0 {
		bad = transpose8(bad)
	}
	return transpose8(care), transpose8(val), bad
}

// ParseCubeWords parses the 01X text s (over 0, 1, x, X and '-', the
// ATPG-community spelling of don't-care) into packed planes: bit j of
// word j/64 of care/val describes trit j, and the bits past len(s) in
// the last word come out zero. care and val must hold at least
// ⌈len(s)/64⌉ words; every one of them is overwritten. On an invalid
// byte it returns an error naming the first one and its index, and the
// planes hold partial output.
func ParseCubeWords(care, val []uint64, s []byte) error {
	words := wordsFor(len(s))
	if len(care) < words || len(val) < words {
		panic("bitvec: ParseCubeWords planes shorter than text")
	}
	var tail [64]byte
	for w := 0; w < words; w++ {
		chunk := s[w*wordBits : min(len(s), (w+1)*wordBits)]
		if len(chunk) < wordBits {
			// Pad the last partial word with X: care and val stay 0.
			n := copy(tail[:], chunk)
			for j := n; j < wordBits; j++ {
				tail[j] = 'X'
			}
			chunk = tail[:]
		}
		c, v, bad := Parse64((*[64]byte)(chunk))
		if bad != 0 {
			i := w*wordBits + bits.TrailingZeros64(bad)
			return fmt.Errorf("bitvec: invalid cube character %q at %d", s[i], i)
		}
		care[w], val[w] = c, v
	}
	return nil
}

// ParseCube parses a string over {0,1,x,X,-} ('-' is the ATPG-community
// alternative spelling of don't-care) into a Cube.
func ParseCube(s string) (*Cube, error) {
	c := NewCube(len(s))
	if err := ParseCubeWords(c.care.words, c.val.words, []byte(s)); err != nil {
		return nil, err
	}
	return c, nil
}
