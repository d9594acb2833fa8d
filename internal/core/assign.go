package core

import (
	"fmt"
	"sort"
	"strings"
)

// MaxCodeLen is the longest codeword an assignment may hold. A
// container header stores each codeword in 8 bytes, and no complete
// prefix code over the nine cases needs more than 8 bits (the longest
// is 1, 2, …, 7, 8, 8), so the bound costs no useful code. It also
// keeps every block's stream image inside the kernels' 64-bit words.
const MaxCodeLen = 8

// codewordLengths is the multiset of codeword lengths the paper fixes
// for the nine cases in their default (Table I) order:
// |C1|=1, |C2|=2, |C3..C8|=5, |C9|=4. They satisfy the Kraft inequality
// with equality, so the nine codewords form a complete prefix code.
var codewordLengths = [NumCases]int{1, 2, 5, 5, 5, 5, 5, 5, 4}

// Assignment maps each of the nine cases to a binary codeword. The
// paper publishes only the codeword lengths; any complete prefix code
// with those lengths is metric-equivalent, and this package uses the
// canonical one (see DefaultAssignment). Frequency-directed operation
// (Table VII) permutes which case receives which length.
type Assignment struct {
	codes [NumCases]string
}

// Code returns the codeword for case c.
func (a Assignment) Code(c Case) string { return a.codes[c-1] }

// Len returns the codeword length for case c.
func (a Assignment) Len(c Case) int { return len(a.codes[c-1]) }

// String lists the nine codewords.
func (a Assignment) String() string {
	parts := make([]string, NumCases)
	for i, code := range a.codes {
		parts[i] = fmt.Sprintf("C%d=%s", i+1, code)
	}
	return strings.Join(parts, " ")
}

// canonicalCodes builds the canonical prefix code for a set of lengths:
// cases are sorted by (length, case index) and assigned increasing code
// values, each shifted to its length. The lengths must satisfy Kraft
// ≤ 1; the 9C multiset meets it with equality.
func canonicalCodes(lengths [NumCases]int) ([NumCases]string, error) {
	var out [NumCases]string
	order := make([]int, NumCases)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if lengths[order[a]] != lengths[order[b]] {
			return lengths[order[a]] < lengths[order[b]]
		}
		return order[a] < order[b]
	})
	code := 0
	prevLen := 0
	for rank, idx := range order {
		l := lengths[idx]
		if l <= 0 || l > MaxCodeLen {
			return out, fmt.Errorf("core: invalid codeword length %d", l)
		}
		if rank > 0 {
			code = (code + 1) << uint(l-prevLen)
		}
		if code >= 1<<uint(l) {
			return out, fmt.Errorf("core: lengths violate Kraft inequality")
		}
		out[idx] = fmt.Sprintf("%0*b", l, code)
		prevLen = l
	}
	return out, nil
}

// DefaultAssignment returns the canonical complete prefix code with the
// paper's case-to-length mapping:
//
//	C1=0 C2=10 C9=1100 C3=11010 C4=11011 C5=11100 C6=11101 C7=11110 C8=11111
func DefaultAssignment() Assignment {
	codes, err := canonicalCodes(codewordLengths)
	if err != nil {
		panic(err) // static input, cannot fail
	}
	return Assignment{codes: codes}
}

// FrequencyDirected returns the assignment that hands the shortest
// codeword lengths to the most frequent cases of counts (ties broken by
// case number), the paper's Table VII strategy. The multiset of lengths
// is unchanged, so the decoder stays the same size.
func FrequencyDirected(counts Counts) Assignment {
	order := make([]int, NumCases)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if counts[order[a]] != counts[order[b]] {
			return counts[order[a]] > counts[order[b]]
		}
		return order[a] < order[b]
	})
	sortedLens := append([]int(nil), codewordLengths[:]...)
	sort.Ints(sortedLens)
	var lengths [NumCases]int
	for rank, idx := range order {
		lengths[idx] = sortedLens[rank]
	}
	codes, err := canonicalCodes(lengths)
	if err != nil {
		panic(err) // permuted multiset still satisfies Kraft
	}
	return Assignment{codes: codes}
}

// AssignmentFromLengths builds the canonical prefix code whose case
// C_i receives a codeword of lengths[i-1] bits. Unlike the paper's
// fixed multiset (DefaultAssignment) or its permutations
// (FrequencyDirected), the lengths here are free: any vector in
// [1,MaxCodeLen]^9 that satisfies the Kraft inequality yields a valid,
// decodable assignment. This is the degree of freedom codecopt tunes
// per corpus.
func AssignmentFromLengths(lengths [NumCases]int) (Assignment, error) {
	codes, err := canonicalCodes(lengths)
	if err != nil {
		return Assignment{}, err
	}
	return Assignment{codes: codes}, nil
}

// Lengths returns the per-case codeword lengths of the assignment.
func (a Assignment) Lengths() [NumCases]int {
	var out [NumCases]int
	for i, c := range a.codes {
		out[i] = len(c)
	}
	return out
}

// Validate checks that the assignment is a prefix-free code over the
// nine cases with no empty codeword and none longer than MaxCodeLen.
func (a Assignment) Validate() error {
	for i, ci := range a.codes {
		if ci == "" {
			return fmt.Errorf("core: case C%d has empty codeword", i+1)
		}
		if len(ci) > MaxCodeLen {
			return fmt.Errorf("core: case C%d codeword has %d bits, more than %d", i+1, len(ci), MaxCodeLen)
		}
		for _, ch := range ci {
			if ch != '0' && ch != '1' {
				return fmt.Errorf("core: case C%d codeword %q not binary", i+1, ci)
			}
		}
		for j, cj := range a.codes {
			if i != j && strings.HasPrefix(cj, ci) {
				return fmt.Errorf("core: C%d=%s is a prefix of C%d=%s", i+1, ci, j+1, cj)
			}
		}
	}
	return nil
}

// KraftSum returns Σ 2^-len(code_i); a complete prefix code yields
// exactly 1.
func (a Assignment) KraftSum() float64 {
	s := 0.0
	for _, c := range a.codes {
		s += 1 / float64(uint64(1)<<uint(len(c)))
	}
	return s
}
