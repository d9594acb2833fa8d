package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// slotAssignments are the codes the slot table is pinned under at block
// size k: the paper's code, the frequency-directed and Huffman codes of
// the s38417 Mintest profile's counts at k, and a complete code whose
// case 1–4 codewords are 3–8 bits long, up to MaxCodeLen.
func slotAssignments(t *testing.T, k int) map[string]Assignment {
	t.Helper()
	set, err := synth.MintestLike("s38417")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustCodec(t, k).EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	var huff [NumCases]int
	copy(huff[:], variantHuffmanLengths(res.Counts[:]))
	out := map[string]Assignment{"default": DefaultAssignment(), "fd": FrequencyDirected(res.Counts)}
	for name, lens := range map[string][NumCases]int{
		"huffman": huff,
		"long":    {3, 4, 5, MaxCodeLen, 1, 2, 6, 7, MaxCodeLen},
	} {
		if out[name], err = AssignmentFromLengths(lens); err != nil {
			t.Fatalf("%s %v: %v", name, lens, err)
		}
	}
	return out
}

// nibbleBlock appends to b a K-trit block whose flag nibble is nib: a
// half holds a 1 (bit 0 for the left half, bit 2 for the right) and a
// 0 (bits 1 and 3) exactly where its bits say, at trits 0 and 1 of the
// half; the other trits are drawn from what the flags allow.
func nibbleBlock(b *strings.Builder, rng *rand.Rand, nib, k int) {
	for half := 0; half < 2; half++ {
		has1, has0 := nib>>(2*half)&1 != 0, nib>>(2*half+1)&1 != 0
		allowed := "X"
		if has1 {
			allowed += "1"
		}
		if has0 {
			allowed += "0"
		}
		for i := 0; i < k/2; i++ {
			switch {
			case i == 0 && has1:
				b.WriteByte('1')
			case i == 1 && has0:
				b.WriteByte('0')
			default:
				b.WriteByte(allowed[rng.Intn(len(allowed))])
			}
		}
	}
}

// slotImage is the stream image the word kernel emits for op over the
// plane words cw, vw.
func slotImage(op *blockOp, cw, vw uint64) (care, val uint64, n int) {
	return op.image(op.codeMask, cw), op.image(op.code, vw), int(op.n)
}

// TestPairOpsMatchSingleOps: for every pair of flag nibbles (a, b), at
// every kernel K and under every slotAssignments code, the slot entry
// emits what the generic encoder emits for two blocks with those flags
// (one block at K = 32, whose slot is the first nibble's op), and its
// packed count adds those blocks' cases; each single op does the same
// for one block.
func TestPairOpsMatchSingleOps(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, k := range kernelKs {
		for name, a := range slotAssignments(t, k) {
			c, err := NewWithAssignment(k, a)
			if err != nil {
				t.Fatal(err)
			}
			per := slotBlocks(k)
			for i := 0; i < 256; i++ {
				for _, tc := range []struct {
					op     *blockOp
					blocks int
				}{{&c.kslots[i], per}, {&c.kops[i&15], 1}} {
					var b strings.Builder
					nibbleBlock(&b, rng, i&15, k)
					nibbleBlock(&b, rng, i>>4, k)
					flat, err := bitvec.ParseCube(b.String()[:tc.blocks*k])
					if err != nil {
						t.Fatal(err)
					}
					care, val := flat.RawWords()
					var w kernelWriter
					w.reset(c.worstBits(tc.blocks))
					var want Counts
					encodeGeneric(c, care, val, tc.blocks, &w, &want)
					gc, gv, n := slotImage(tc.op, care[0], val[0])
					label := fmt.Sprintf("K=%d %s entry %#02x (%d blocks)", k, name, i, tc.blocks)
					if n != w.n || gc != w.care[0]&lowMask64(n) || gv != w.val[0]&lowMask64(n) {
						t.Fatalf("%s: emits %d trits %#x/%#x, generic %d trits %#x/%#x",
							label, n, gc, gv, w.n, w.care[0], w.val[0])
					}
					var got Counts
					for cs := range got {
						got[cs] = int(tc.op.cnt >> (countBits * cs) & countMax)
					}
					if got != want {
						t.Fatalf("%s: counts %v, generic %v", label, got, want)
					}
				}
			}
		}
	}
}

// TestEncodeCountsFlushBoundary: at K=4, where a word holds 16 blocks
// and the packed counts are flushed every 7 words, rows of 2048 and
// 2047 data-free blocks (one case throughout, all-X words that take the
// C1 batch, runs that change case at and around the flush points, and
// a random mix) count exactly as the trit-level reference, through the
// text and the plane feeder.
func TestEncodeCountsFlushBoundary(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewSource(4))
	block := map[Case]string{CaseAll0: "0X", CaseAll1: "11", Case0Then1: "01", Case1Then0: "10"}
	for _, width := range []int{2048 * k, 2047*k - 1} {
		rows := []func(b int) Case{
			func(int) Case { return CaseAll1 },
			func(int) Case { return CaseAll0 },
			func(b int) Case { return Case(b/112%4 + 1) },
			func(b int) Case { return Case(b/111%4 + 1) },
			func(b int) Case { return Case(b/113%3 + 2) },
			func(int) Case { return Case(rng.Intn(4) + 1) },
		}
		var text strings.Builder
		set := tcube.NewSet("flush", width)
		for _, row := range rows {
			var b strings.Builder
			for i := 0; b.Len() < width; i++ {
				s := block[row(i)]
				b.WriteString(s[:1] + strings.Repeat(s[:1], k/2-1) + s[1:] + strings.Repeat(s[1:], k/2-1))
			}
			line := b.String()[:width]
			cube, err := bitvec.ParseCube(line)
			if err != nil {
				t.Fatal(err)
			}
			set.MustAppend(cube)
			text.WriteString(line + "\n")
		}
		c := mustCodec(t, k)
		want, err := c.EncodeSetReference(set)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.EncodeText(context.Background(), []byte(text.String()), nil)
		if !ok {
			t.Fatal("text path refused the rows")
		}
		checkSameResult(t, fmt.Sprintf("width %d text", width), got, want)
		if got, err = c.EncodeSet(set); err != nil {
			t.Fatal(err)
		}
		checkSameResult(t, fmt.Sprintf("width %d plane", width), got, want)
	}
}

// slotCoverage steps the word kernel's decisions over a set at K=8
// without encoding: an all-zero val word is one C1 batch, any other
// word one slot lookup per slotBlocks blocks and one op lookup for an
// odd last block. It returns the blocks the batches and the slots of
// two data-free blocks cover, the lookups, and the blocks.
func slotCoverage(t *testing.T, c *Codec, set *tcube.Set) (batched, freePairs, lookups, blocks int) {
	t.Helper()
	const k, perWord = 8, 8
	per := slotBlocks(k)
	for p := 0; p < set.Len(); p++ {
		flat := set.Cube(p)
		_, val := flat.RawWords()
		left := (flat.Len() + k - 1) / k
		for wi := 0; left > 0; wi++ {
			n := min(left, perWord)
			if val[wi] == 0 && n == perWord && c.kc1ok {
				batched, lookups = batched+n, lookups+1
			} else {
				for b := 0; per == 2 && b+1 < n; b += 2 {
					off := (wi*perWord + b) * k
					if Classify(flat, off, k) <= Case1Then0 && Classify(flat, off+k, k) <= Case1Then0 {
						freePairs += 2
					}
				}
				lookups += (n + per - 1) / per
			}
			blocks, left = blocks+n, left-n
		}
	}
	return batched, freePairs, lookups, blocks
}

// TestPairCoverageMintest reports, for the six Mintest profiles at K=8
// under the default code, the share of blocks the C1 batch and the
// slots of two data-free blocks cover, and the mean blocks per table
// lookup (go test -v). It pins at least two blocks per lookup on every
// profile, and a data-free pair or batch for most blocks.
func TestPairCoverageMintest(t *testing.T) {
	c := mustCodec(t, 8)
	for _, cs := range synth.Benchmarks {
		set, err := synth.MintestLike(cs.Name)
		if err != nil {
			t.Fatal(err)
		}
		batched, pairs, lookups, blocks := slotCoverage(t, c, set)
		perLookup := float64(blocks) / float64(lookups)
		free := float64(batched+pairs) / float64(blocks)
		t.Logf("%-8s C1 batch %5.1f%%  data-free pairs %5.1f%%  %.2f blocks per lookup (%d blocks)",
			cs.Name, 100*float64(batched)/float64(blocks), 100*float64(pairs)/float64(blocks), perLookup, blocks)
		if perLookup < 2 || free < 0.7 {
			t.Errorf("%s: %.2f blocks per lookup, %.1f%% in data-free pairs or batches; want ≥ 2 and ≥ 70%%",
				cs.Name, perLookup, 100*free)
		}
	}
}
