package bitvec

// WordCount returns the number of 64-bit words backing the vector.
func (b *Bits) WordCount() int { return len(b.words) }

// Word returns backing word i (bit j of the word is vector bit
// 64·i+j). Unused high bits of the last word are always zero. The
// accessor exists for callers that combine several vectors word-wise
// (e.g. scan-cell compatibility counting); ordinary code should use
// Get/Set.
func (b *Bits) Word(i int) uint64 { return b.words[i] }

// AnyInRange reports whether any bit in [lo, hi) is 1 (clamped).
func (b *Bits) AnyInRange(lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return false
	}
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if loWord == hiWord {
		return b.words[loWord]&loMask&hiMask != 0
	}
	if b.words[loWord]&loMask != 0 {
		return true
	}
	for w := loWord + 1; w < hiWord; w++ {
		if b.words[w] != 0 {
			return true
		}
	}
	return b.words[hiWord]&hiMask != 0
}
