package codecopt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// trainingCorpus builds a deterministic skewed corpus: long 0-runs
// with sparse care bits, so the case distribution is far from uniform
// and a tuned code has something to gain.
func trainingCorpus(t *testing.T) []*tcube.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var b strings.Builder
	for p := 0; p < 32; p++ {
		for j := 0; j < 96; j++ {
			switch {
			case rng.Intn(10) == 0:
				b.WriteByte('1')
			case rng.Intn(3) == 0:
				b.WriteByte('0')
			default:
				b.WriteByte('X')
			}
		}
		b.WriteByte('\n')
	}
	return []*tcube.Set{mustSet(t, "train", b.String())}
}

func TestSearchDeterministic(t *testing.T) {
	corpus := trainingCorpus(t)
	a, err := Search(context.Background(), corpus, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	b, err := Search(context.Background(), corpus, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if a.ProfileID != b.ProfileID {
		t.Fatalf("same corpus, different profiles: %s vs %s", a.ProfileID, b.ProfileID)
	}
	if *a != *b {
		t.Fatalf("same corpus, different reports: %+v vs %+v", a, b)
	}
	if !bytes.Equal(a.Profile.Canonical(), []byte(a.Canonical)) {
		t.Fatalf("report canonical mismatch")
	}
}

func TestSearchUpliftNonNegative(t *testing.T) {
	rep, err := Search(context.Background(), trainingCorpus(t), Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if rep.UpliftPct < 0 {
		t.Fatalf("tuned code worse than fixed 9C: uplift %.3f (tuned %d bits vs fixed %d)",
			rep.UpliftPct, rep.TunedBits, rep.FixedBits)
	}
	if rep.TunedBits > rep.FixedBits {
		t.Fatalf("tuned %d bits > fixed %d bits despite fixed being in the search space",
			rep.TunedBits, rep.FixedBits)
	}
	if err := rep.Profile.Validate(); err != nil {
		t.Fatalf("winning profile invalid: %v", err)
	}
}

// TestSearchScoreIsExact pins the scorer to reality: the report's
// TunedBits must equal the actual encoded stream length of the corpus
// under the winning profile's codec.
func TestSearchScoreIsExact(t *testing.T) {
	corpus := trainingCorpus(t)
	rep, err := Search(context.Background(), corpus, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	cdc, err := rep.Profile.Codec()
	if err != nil {
		t.Fatalf("Codec: %v", err)
	}
	total := 0
	for _, s := range corpus {
		filled, err := rep.Profile.Fill.Apply(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cdc.EncodeSet(filled)
		if err != nil {
			t.Fatalf("EncodeSet: %v", err)
		}
		total += res.CompressedBits()
	}
	if total != rep.TunedBits {
		t.Fatalf("scored %d bits, actual encode is %d", rep.TunedBits, total)
	}
}

// TestTunedProfileRoundTripsCore is the core half of the differential
// round-trip requirement: encode the corpus under the tuned profile
// and decode it back — every specified source bit must survive.
func TestTunedProfileRoundTripsCore(t *testing.T) {
	corpus := trainingCorpus(t)
	rep, err := Search(context.Background(), corpus, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	cdc, err := rep.Profile.Codec()
	if err != nil {
		t.Fatalf("Codec: %v", err)
	}
	for _, s := range corpus {
		filled, err := rep.Profile.Fill.Apply(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cdc.EncodeSet(filled)
		if err != nil {
			t.Fatalf("EncodeSet: %v", err)
		}
		dec, err := cdc.DecodeSet(res.Stream, filled.Width(), filled.Len())
		if err != nil {
			t.Fatalf("DecodeSet: %v", err)
		}
		if !filled.Covers(dec) {
			t.Fatalf("decode contradicts source set %s", s.Name)
		}
	}
}

// TestSearchHonorsRestrictedAxes pins Options.Ks/Fills filtering.
func TestSearchHonorsRestrictedAxes(t *testing.T) {
	rep, err := Search(context.Background(), trainingCorpus(t), Options{
		Ks: []int{8}, Fills: []Fill{FillNone},
	})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if rep.Profile.K != 8 || rep.Profile.Fill != FillNone {
		t.Fatalf("search escaped its axes: %+v", rep.Profile)
	}
	if rep.FixedK != 8 {
		t.Fatalf("fixed baseline K = %d, want 8", rep.FixedK)
	}
}

// TestSearchHonoursContext: a cancelled or expired context stops
// Search with the context's error and no report.
func TestSearchHonoursContext(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	for _, tc := range []struct {
		ctx  context.Context
		want error
		opts Options
	}{
		{cancelled, context.Canceled, Options{}},
		{expired, context.DeadlineExceeded, Options{}},
		{expired, context.DeadlineExceeded, Options{Fills: []Fill{FillNone}}},
	} {
		rep, err := Search(tc.ctx, trainingCorpus(t), tc.opts)
		if !errors.Is(err, tc.want) || rep != nil {
			t.Errorf("Search(%+v) under a done context = %v, %v; want nil, %v", tc.opts, rep, err, tc.want)
		}
	}
}

func TestSearchEmptyCorpus(t *testing.T) {
	if _, err := Search(context.Background(), nil, Options{}); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

// completeDepthProfiles lists every sorted length vector of a complete
// prefix code over nine symbols (Kraft sum exactly 1, lengths in
// [1, MaxCodeLen]).
func completeDepthProfiles() [][core.NumCases]int {
	var out [][core.NumCases]int
	var cur [core.NumCases]int
	var walk func(i, min, kraft int)
	walk = func(i, min, kraft int) {
		if i == core.NumCases {
			if kraft == 1<<MaxCodeLen {
				out = append(out, cur)
			}
			return
		}
		for l := min; l <= MaxCodeLen; l++ {
			if w := kraft + 1<<(MaxCodeLen-l)*(core.NumCases-i); w < 1<<MaxCodeLen {
				continue // even all-l for the rest cannot fill the code
			}
			if kraft+1<<(MaxCodeLen-l) > 1<<MaxCodeLen {
				continue
			}
			cur[i] = l
			walk(i+1, l, kraft+1<<(MaxCodeLen-l))
		}
	}
	walk(0, 1, 0)
	return out
}

// exhaustiveMinimum is the oracle: the least Σ N_i·len_i over every
// complete code, each depth profile assigned by the rearrangement
// inequality (shortest lengths to the largest counts). Incomplete
// codes are never better: shortening a leaf to complete the code
// cannot raise the cost.
func exhaustiveMinimum(profiles [][core.NumCases]int, counts core.Counts) int {
	desc := counts
	sort.Sort(sort.Reverse(sort.IntSlice(desc[:])))
	best := -1
	for _, p := range profiles {
		cost := 0
		for i, l := range p {
			cost += desc[i] * l
		}
		if best < 0 || cost < best {
			best = cost
		}
	}
	return best
}

// oracleCounts returns the count vectors the Huffman tests run on:
// 256 seeded random vectors (with zeros, i.e. unseen cases), the
// all-zero vector, and every (K, fill) cell of the six Mintest-profile
// sets.
func oracleCounts(t *testing.T) (names []string, counts []core.Counts) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	for n := 0; n < 256; n++ {
		var c core.Counts
		for i := range c {
			switch rng.Intn(4) {
			case 0: // unseen case
			case 1:
				c[i] = rng.Intn(4)
			default:
				c[i] = rng.Intn(1 << uint(rng.Intn(16)))
			}
		}
		names, counts = append(names, fmt.Sprintf("random %d", n)), append(counts, c)
	}
	names, counts = append(names, "all zero"), append(counts, core.Counts{})

	for _, cs := range synth.Benchmarks {
		set, err := synth.MintestLike(cs.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fill := range Fills {
			filled, err := fill.Apply(set)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range SearchKs {
				c, err := buildCell(context.Background(), []*tcube.Set{filled}, k)
				if err != nil {
					t.Fatal(err)
				}
				names = append(names, fmt.Sprintf("%s k=%d fill=%s", cs.Name, k, fill))
				counts = append(counts, c.counts)
			}
		}
	}
	return names, counts
}

// TestHuffmanLengthsOptimal pins huffmanLengths to the exact optimum:
// on every oracle count vector its cost equals the exhaustive minimum,
// and so never exceeds the paper's fixed vector.
func TestHuffmanLengthsOptimal(t *testing.T) {
	profiles := completeDepthProfiles()
	if len(profiles) == 0 {
		t.Fatal("no complete depth profiles")
	}
	fixed := core.DefaultAssignment().Lengths()
	names, all := oracleCounts(t)
	for n, counts := range all {
		h := huffmanLengths(counts)
		cost, fixedCost := 0, 0
		for i := range counts {
			cost += counts[i] * h[i]
			fixedCost += counts[i] * fixed[i]
		}
		if min := exhaustiveMinimum(profiles, counts); cost != min {
			t.Fatalf("%s: counts %v: huffman %v costs %d, exhaustive minimum %d", names[n], counts, h, cost, min)
		}
		if cost > fixedCost {
			t.Fatalf("%s: huffman vector %v worse than the fixed code", names[n], h)
		}
	}
}

// TestRepairRestoresKraft checks that huffmanLengths needs no Kraft
// repair: every vector it returns is a complete code (Kraft sum
// exactly 1) with lengths in [1, MaxCodeLen] that a profile and the
// codec accept. Vectors that break Kraft or the length range never
// reach a profile: Profile.Validate refuses them.
func TestRepairRestoresKraft(t *testing.T) {
	names, all := oracleCounts(t)
	for n, counts := range all {
		h := huffmanLengths(counts)
		kraft := 0
		for _, l := range h {
			if l < 1 || l > MaxCodeLen {
				t.Fatalf("%s: length %d outside [1,%d]: %v", names[n], l, MaxCodeLen, h)
			}
			kraft += 1 << (MaxCodeLen - l)
		}
		if kraft != 1<<MaxCodeLen {
			t.Fatalf("%s: Kraft sum %d/%d, want exactly 1: %v", names[n], kraft, 1<<MaxCodeLen, h)
		}
		if err := (Profile{K: 8, Lengths: h, Fill: FillNone}).Validate(); err != nil {
			t.Fatalf("%s: %v rejected by Validate: %v", names[n], h, err)
		}
		if _, err := core.AssignmentFromLengths(h); err != nil {
			t.Fatalf("%s: %v unrealizable: %v", names[n], h, err)
		}
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		var l [core.NumCases]int
		for j := range l {
			l[j] = rng.Intn(MaxCodeLen+4) - 2
		}
		want, kraft := true, 0
		for _, v := range l {
			if v < 1 || v > MaxCodeLen {
				want = false
				break
			}
			kraft += 1 << (MaxCodeLen - v)
		}
		want = want && kraft <= 1<<MaxCodeLen
		err := (Profile{K: 8, Lengths: l, Fill: FillNone}).Validate()
		if (err == nil) != want {
			t.Fatalf("Validate(%v) = %v, want valid=%v", l, err, want)
		}
		if err == nil {
			if _, err := core.AssignmentFromLengths(l); err != nil {
				t.Fatalf("validated vector %v unrealizable: %v", l, err)
			}
		}
	}
}

// TestSearchPinnedProfiles pins Search's winner on fixed corpora. The
// expected profiles and bits are those of the evolutionary search this
// closed form replaced, so a change here is a change of behaviour.
func TestSearchPinnedProfiles(t *testing.T) {
	var all []*tcube.Set
	cases := []struct {
		name   string
		corpus func() []*tcube.Set
		want   string
		bits   int
	}{
		{"s5378", nil, "9cprof/1 k=8 fill=none lens=1,2,5,6,4,4,5,5,6\n", 6761},
		{"s9234", nil, "9cprof/1 k=8 fill=none lens=1,2,5,6,4,4,5,5,6\n", 10608},
		{"s13207", nil, "9cprof/1 k=16 fill=none lens=1,2,6,7,3,4,7,6,6\n", 19152},
		{"s15850", nil, "9cprof/1 k=16 fill=none lens=1,3,5,6,3,3,6,5,5\n", 15165},
		{"s38417", nil, "9cprof/1 k=8 fill=none lens=1,2,5,5,4,4,6,5,6\n", 50311},
		{"s38584", nil, "9cprof/1 k=16 fill=none lens=1,3,5,6,3,3,6,5,5\n", 40766},
		{"union", func() []*tcube.Set { return all },
			"9cprof/1 k=16 fill=none lens=1,3,5,6,3,3,6,5,5\n", 148159},
		{"training", func() []*tcube.Set { return trainingCorpus(t) },
			"9cprof/1 k=4 fill=none lens=1,3,3,4,4,4,6,5,6\n", 1640},
		{"cubes.txt", func() []*tcube.Set {
			f, err := os.Open("../../examples/cubes.txt")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s, err := tcube.Read("cubes", f)
			if err != nil {
				t.Fatal(err)
			}
			return []*tcube.Set{s}
		}, "9cprof/1 k=4 fill=none lens=1,2,4,3,6,5,8,7,8\n", 739},
	}
	for _, tc := range cases {
		if tc.corpus == nil {
			set, err := synth.MintestLike(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, set)
			tc.corpus = func() []*tcube.Set { return []*tcube.Set{set} }
		}
		rep, err := Search(context.Background(), tc.corpus(), Options{})
		if err != nil {
			t.Fatalf("%s: Search: %v", tc.name, err)
		}
		if rep.Canonical != tc.want || rep.TunedBits != tc.bits {
			t.Errorf("%s: got %q at %d bits, want %q at %d bits",
				tc.name, rep.Canonical, rep.TunedBits, tc.want, tc.bits)
		}
	}
}

// TestSearchFillWins: a fill can beat "none" only by relabelling
// all-X blocks. On all-X 32-bit blocks alternating with all-1 blocks,
// fill=one makes every block one case (1 bit each) while fill=none
// leaves two cases (1 and 2 bits), so the fill axis must pick a fill.
func TestSearchFillWins(t *testing.T) {
	row := strings.Repeat(strings.Repeat("X", 32)+strings.Repeat("1", 32), 16) + "\n"
	corpus := []*tcube.Set{mustSet(t, "fillwins", strings.Repeat(row, 16))}
	none, err := Search(context.Background(), corpus, Options{Fills: []Fill{FillNone}})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	rep, err := Search(context.Background(), corpus, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if none.TunedBits != 768 || rep.TunedBits != 512 {
		t.Fatalf("fill=none %d bits, all fills %d bits; want 768 and 512", none.TunedBits, rep.TunedBits)
	}
	if rep.Profile.Fill != FillOne && rep.Profile.Fill != FillAdjacent {
		t.Fatalf("fill axis picked %q, want one or adjacent", rep.Profile.Fill)
	}
}

// TestSearchRejectsInvalidAxes: a (K, fill) that no Profile can carry
// is refused before any encode, so Search never reports a profile that
// POST /profiles or /encode would refuse.
func TestSearchRejectsInvalidAxes(t *testing.T) {
	for _, opts := range []Options{
		{Ks: []int{66}},
		{Ks: []int{7}},
		{Ks: []int{8, 0}},
		{Fills: []Fill{"bogus"}},
	} {
		if rep, err := Search(context.Background(), trainingCorpus(t), opts); err == nil {
			t.Errorf("Search(%+v) = %s, want an error", opts, rep.Canonical)
		}
	}
}

// TestSearchBaselineWithoutNone: the fixed-code baseline is the paper
// code at fill=none even when the fill axis leaves none out.
func TestSearchBaselineWithoutNone(t *testing.T) {
	corpus := trainingCorpus(t)
	want, err := Search(context.Background(), corpus, Options{Ks: []int{8}, Fills: []Fill{FillNone}})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	rep, err := Search(context.Background(), corpus, Options{Ks: []int{8}, Fills: []Fill{FillZero}})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if rep.FixedBits != want.FixedBits || rep.FixedK != 8 || rep.FixedCR != want.FixedCR {
		t.Fatalf("fill=zero baseline %d bits at K=%d (CR %.2f), want %d at K=8 (CR %.2f)",
			rep.FixedBits, rep.FixedK, rep.FixedCR, want.FixedBits, want.FixedCR)
	}
	if rep.Profile.Fill != FillZero {
		t.Fatalf("search escaped its fill axis: %+v", rep.Profile)
	}
}

// BenchmarkSearch times a default Search (four Ks, four fills) on a
// corpus of twenty copies of the s38417 Mintest-profile set, about
// 3.3 M trits, the per-layer cost of a default /train.
func BenchmarkSearch(b *testing.B) {
	set, err := synth.MintestLike("s38417")
	if err != nil {
		b.Fatal(err)
	}
	corpus := make([]*tcube.Set, 20)
	for i := range corpus {
		corpus[i] = set
	}
	b.SetBytes(int64(len(corpus) * set.Bits()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(context.Background(), corpus, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
