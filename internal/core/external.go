package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/robust"
)

// AssignmentFromCodes builds an Assignment from nine codeword strings
// in case order (index 0 = C1), validating prefix-freeness. It is the
// deserialization entry point for stored streams.
func AssignmentFromCodes(codes []string) (Assignment, error) {
	var a Assignment
	if len(codes) != NumCases {
		return a, fmt.Errorf("core: %d codewords, want %d", len(codes), NumCases)
	}
	copy(a.codes[:], codes)
	if err := a.Validate(); err != nil {
		return a, err
	}
	return a, nil
}

// CountsOfStream re-derives the codeword statistics of a compressed
// stream by walking exactly blocks block encodings. It validates
// framing as a side effect: a truncated, malformed or over-long stream
// is a classified error.
//
// Codecs with a decode LUT walk the blocks one table lookup per
// codeword, skipping shipped halves; the codeword trie takes over from
// the first block the table does not vouch for, so errors and their
// positions are the trie's.
func CountsOfStream(c *Codec, stream *bitvec.Cube, blocks int) (Counts, error) {
	var counts Counts
	r := &streamReader{src: NewCubeSource(stream)}
	h := c.k / 2
	b := 0
	if c.hasDecodeKernel() {
		if r.prefetch(stream.Len()); r.buf != nil {
			care, val := r.buf.RawWords()
			r.pos, b = countBlocks(c, care, val, r.buf.Len(), 0, blocks, &counts)
			r.consumed = r.pos
		}
	}
	for ; b < blocks; b++ {
		cs, err := nextCase(c.table, r)
		if err != nil {
			return counts, fmt.Errorf("core: block %d: %w", b, err)
		}
		counts.Add(cs)
		skip := 0
		if cs.LeftMismatch() {
			skip += h
		}
		if cs.RightMismatch() {
			skip += h
		}
		if err := r.ensure(skip); err != nil {
			return counts, fmt.Errorf("core: block %d: %w", b, err)
		}
		r.pos += skip
		r.consumed += skip
	}
	if n := stream.Len() - r.consumed; n != 0 {
		return counts, fmt.Errorf("core: %d trailing bits after final block: %w", n, robust.ErrCorrupt)
	}
	return counts, nil
}
