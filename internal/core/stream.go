package core

import (
	"fmt"

	"repro/internal/robust"
)

// ErrTruncated is returned when a compressed stream ends mid-block.
// It wraps robust.ErrTruncated (the shared hostile-input taxonomy).
var ErrTruncated = fmt.Errorf("core: compressed stream %w", robust.ErrTruncated)

// ErrBadCodeword is returned when the stream contains a bit sequence
// that is not a valid codeword, or an X where a codeword bit belongs
// (codewords are always fully specified; only mismatch data carries X).
// It wraps robust.ErrCorrupt.
var ErrBadCodeword = fmt.Errorf("core: invalid codeword in stream: %w", robust.ErrCorrupt)

// packedCode is a codeword packed for word appending: bit i of bits is
// stream position i of the codeword (the first code character is the
// lowest bit), matching the Bits storage order.
type packedCode struct {
	bits uint64
	n    int
}

func packCode(code string) packedCode {
	p := packedCode{n: len(code)}
	for i := 0; i < len(code); i++ {
		if code[i] == '1' {
			p.bits |= 1 << uint(i)
		}
	}
	return p
}

// packAssignment packs all nine codewords of an assignment.
func packAssignment(a Assignment) [NumCases]packedCode {
	var out [NumCases]packedCode
	for cs := CaseAll0; cs <= CaseMisMis; cs++ {
		out[cs-1] = packCode(a.Code(cs))
	}
	return out
}

// decodeTable walks codeword bits through a binary trie, mirroring the
// on-chip FSM that recognizes the nine prefix-free codewords in at most
// five cycles.
type decodeTable struct {
	// node layout: zero/one children, or a terminal case.
	zero, one []int16 // child node index, -1 if absent
	term      []Case  // 0 if internal
}

func newDecodeTable(a Assignment) *decodeTable {
	t := &decodeTable{}
	t.addNode()
	for cs := CaseAll0; cs <= CaseMisMis; cs++ {
		node := 0
		code := a.Code(cs)
		for i := 0; i < len(code); i++ {
			one := code[i] == '1'
			var child int16
			if one {
				child = t.one[node]
			} else {
				child = t.zero[node]
			}
			if child < 0 {
				// addNode may grow the slices, so store the index after
				// the append rather than writing through a stale pointer.
				child = int16(t.addNode())
				if one {
					t.one[node] = child
				} else {
					t.zero[node] = child
				}
			}
			node = int(child)
		}
		t.term[node] = cs
	}
	return t
}

func (t *decodeTable) addNode() int {
	t.zero = append(t.zero, -1)
	t.one = append(t.one, -1)
	t.term = append(t.term, 0)
	return len(t.term) - 1
}

// nextCase reads one codeword from r and returns its case.
func nextCase(t *decodeTable, r *streamReader) (Case, error) {
	node := 0
	for {
		if t.term[node] != 0 {
			return t.term[node], nil
		}
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		var child int16
		if b {
			child = t.one[node]
		} else {
			child = t.zero[node]
		}
		if child < 0 {
			return 0, fmt.Errorf("%w: no codeword matches at bit %d", ErrBadCodeword, r.consumed-1)
		}
		node = int(child)
	}
}
