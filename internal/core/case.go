// Package core implements the paper's contribution: the nine-coded (9C)
// fixed-block test-data compression technique. Test data is partitioned
// into K-bit blocks; each block splits into two K/2-bit halves; each
// half is either compatible with all-0s, compatible with all-1s, or a
// mismatch, giving nine block cases, each mapped to one of nine
// prefix-free codewords. Mismatch halves travel verbatim behind the
// codeword and keep their don't-care (X) bits — the "leftover
// don't-cares" that downstream flows may fill randomly to catch
// non-modeled faults.
package core

import (
	"fmt"

	"repro/internal/bitvec"
)

// Case identifies one of the nine 9C block classifications, numbered as
// in Table I of the paper.
type Case int

// The nine block cases. Left/Right refer to the two K/2-bit halves.
const (
	CaseAll0     Case = iota + 1 // 1: left 0s, right 0s
	CaseAll1                     // 2: left 1s, right 1s
	Case0Then1                   // 3: left 0s, right 1s
	Case1Then0                   // 4: left 1s, right 0s
	Case0ThenMis                 // 5: left 0s, right mismatch
	CaseMisThen0                 // 6: left mismatch, right 0s
	Case1ThenMis                 // 7: left 1s, right mismatch
	CaseMisThen1                 // 8: left mismatch, right 1s
	CaseMisMis                   // 9: left mismatch, right mismatch
)

// NumCases is the number of 9C block cases.
const NumCases = 9

// String returns the paper's "C1".."C9" name.
func (c Case) String() string {
	if c < CaseAll0 || c > CaseMisMis {
		return fmt.Sprintf("Case(%d)", int(c))
	}
	return fmt.Sprintf("C%d", int(c))
}

// Symbol returns the paper's two-half symbol for the case, e.g. "0 1"
// for C3 or "U 1" for C8 where U marks a mismatch half.
func (c Case) Symbol() string {
	switch c {
	case CaseAll0:
		return "0 0"
	case CaseAll1:
		return "1 1"
	case Case0Then1:
		return "0 1"
	case Case1Then0:
		return "1 0"
	case Case0ThenMis:
		return "0 U"
	case CaseMisThen0:
		return "U 0"
	case Case1ThenMis:
		return "1 U"
	case CaseMisThen1:
		return "U 1"
	case CaseMisMis:
		return "U U"
	}
	return "?"
}

// LeftMismatch reports whether the left half is shipped verbatim.
func (c Case) LeftMismatch() bool {
	return c == CaseMisThen0 || c == CaseMisThen1 || c == CaseMisMis
}

// RightMismatch reports whether the right half is shipped verbatim.
func (c Case) RightMismatch() bool {
	return c == Case0ThenMis || c == Case1ThenMis || c == CaseMisMis
}

// DataBits returns how many raw data bits follow the codeword for a
// block size of k: 0, k/2 or k.
func (c Case) DataBits(k int) int {
	n := 0
	if c.LeftMismatch() {
		n += k / 2
	}
	if c.RightMismatch() {
		n += k / 2
	}
	return n
}

// matchedLeft returns the constant value the decoder regenerates for a
// non-mismatch left half, and ok=false for mismatch cases.
func (c Case) matchedLeft() (bitvec.Trit, bool) {
	switch c {
	case CaseAll0, Case0Then1, Case0ThenMis:
		return bitvec.Zero, true
	case CaseAll1, Case1Then0, Case1ThenMis:
		return bitvec.One, true
	}
	return bitvec.X, false
}

// matchedRight is matchedLeft for the right half.
func (c Case) matchedRight() (bitvec.Trit, bool) {
	switch c {
	case CaseAll0, Case1Then0, CaseMisThen0:
		return bitvec.Zero, true
	case CaseAll1, Case0Then1, CaseMisThen1:
		return bitvec.One, true
	}
	return bitvec.X, false
}

// Classify determines the 9C case of the k-bit block of flat starting
// at offset off. Positions beyond the end of flat are treated as X
// (trailing-block padding). Matching priority follows the table row
// order, so an all-X half counts as 0-compatible first. Each half is
// classified by one masked pass over the packed care/val planes:
// 0-compatible ⟺ no val bit in range, 1-compatible ⟺ no care&^val bit.
// The encoders classify the same way from plane words (classifyFlags).
func Classify(flat *bitvec.Cube, off, k int) Case {
	h := k / 2
	l0, l1 := flat.Compat(off, off+h)
	r0, r1 := flat.Compat(off+h, off+k)
	return classifyFlags(l0, l1, r0, r1)
}
