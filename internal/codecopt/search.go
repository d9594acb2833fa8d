package codecopt

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tcube"
)

// Options restricts Search. The zero value searches the whole space,
// and the result is a function of (corpus, Options) alone.
type Options struct {
	// Ks is the block-size axis (default SearchKs).
	Ks []int
	// Fills is the fill axis (default Fills).
	Fills []Fill
}

func (o Options) withDefaults() Options {
	if len(o.Ks) == 0 {
		o.Ks = SearchKs
	}
	if len(o.Fills) == 0 {
		o.Fills = Fills
	}
	return o
}

// Validate reports whether every (K, fill) on the axes makes a valid
// Profile; Search refuses the options otherwise, before any encode.
func (o Options) Validate() error {
	o = o.withDefaults()
	lens := core.DefaultAssignment().Lengths()
	for _, k := range o.Ks {
		for _, fill := range o.Fills {
			if err := (Profile{K: k, Lengths: lens, Fill: fill}).Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Report is the outcome of one Search: the winning profile, the exact
// encoded-bits ledger it was scored on, and the fixed-code baseline it
// is measured against.
type Report struct {
	// Profile is the best tuned-9C configuration found; ProfileID its
	// content address.
	Profile   Profile `json:"-"`
	ProfileID string  `json:"id"`
	// Canonical is the profile's wire encoding (what POST /profiles
	// accepts).
	Canonical string `json:"profile"`

	OrigBits int `json:"orig_bits"`
	// TunedBits is the exact encoded size of the corpus under Profile.
	TunedBits int `json:"tuned_bits"`
	// FixedBits is the best the *fixed* paper code (default assignment,
	// fill=none) achieves over the searched Ks, and FixedK that K — the
	// uplift baseline. It is scored even when the fill axis leaves out
	// fill=none.
	FixedBits int `json:"fixed_bits"`
	FixedK    int `json:"fixed_k"`

	// TunedCR/FixedCR are compression ratios in percent; UpliftPct is
	// their difference in percentage points. It is >= 0 whenever
	// fill=none is searched: the Huffman code over the fill=none counts
	// costs no more than the paper code over the same counts. A fill
	// axis without none can lose to the baseline, and then UpliftPct
	// is negative.
	TunedCR   float64 `json:"tuned_cr"`
	FixedCR   float64 `json:"fixed_cr"`
	UpliftPct float64 `json:"uplift_pct"`
}

// cell is the per-(K, fill) precomputation: case statistics are a
// function of (K, fill) only — never of the assignment — so one encode
// pass per corpus set yields counts against which any length vector is
// scored in O(9).
type cell struct {
	k      int
	counts core.Counts
}

// score is the exact encoded size of the cell's corpus under the
// length vector: Σ_i N_i·(len_i + DataBits_i), the same closed form
// core.CompressedSize computes (and Result.CR is tested against).
func (c *cell) score(lengths [core.NumCases]int) int {
	total := 0
	for cs := core.CaseAll0; cs <= core.CaseMisMis; cs++ {
		total += c.counts.N(cs) * (lengths[cs-1] + cs.DataBits(c.k))
	}
	return total
}

// Search finds the best tuned-9C profile for the corpus. A cell's
// score is Σ N_i·len_i plus a data term that does not depend on the
// lengths, so the best length vector of each (K, fill) cell is the
// Huffman code over the cell's case counts; the best cell becomes the
// Profile (the first in axis order on a tie). ctx is checked before
// each fill and each cell and inside every encode; once it is done,
// Search returns its error and no report.
func Search(ctx context.Context, corpus []*tcube.Set, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if len(corpus) == 0 {
		return nil, fmt.Errorf("codecopt: empty training corpus")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	sp := obs.Active().Span("codecopt.search")
	defer sp.End()

	origBits := 0
	for _, s := range corpus {
		origBits += s.Bits()
	}
	sp.Set("sets", len(corpus)).Set("orig_bits", origBits)

	// A fill does not depend on K, so each is applied once and its
	// copy serves every K.
	filled := map[Fill][]*tcube.Set{FillNone: corpus}
	for _, fill := range opts.Fills {
		if filled[fill] != nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sets := make([]*tcube.Set, len(corpus))
		for i, s := range corpus {
			var err error
			if sets[i], err = fill.Apply(s); err != nil {
				return nil, err
			}
		}
		filled[fill] = sets
	}

	rep := &Report{OrigBits: origBits, FixedBits: -1, TunedBits: -1}
	defaultLens := core.DefaultAssignment().Lengths()
	for _, k := range opts.Ks {
		// The fixed-9C baseline: paper lengths, X preserved.
		none, err := buildCell(ctx, corpus, k)
		if err != nil {
			return nil, err
		}
		if fb := none.score(defaultLens); rep.FixedBits < 0 || fb < rep.FixedBits {
			rep.FixedBits, rep.FixedK = fb, k
		}
		for _, fill := range opts.Fills {
			c := none
			if fill != FillNone {
				if c, err = buildCell(ctx, filled[fill], k); err != nil {
					return nil, err
				}
			}
			lens := huffmanLengths(c.counts)
			bits := c.score(lens)
			if rep.TunedBits < 0 || bits < rep.TunedBits {
				rep.TunedBits = bits
				rep.Profile = Profile{K: k, Lengths: lens, Fill: fill}
			}
			obs.Active().Span("codecopt.cell").
				Set("k", k).Set("fill", string(fill)).Set("bits", bits).End()
		}
	}

	rep.ProfileID = rep.Profile.ID()
	rep.Canonical = string(rep.Profile.Canonical())
	rep.TunedCR = crPct(origBits, rep.TunedBits)
	rep.FixedCR = crPct(origBits, rep.FixedBits)
	rep.UpliftPct = rep.TunedCR - rep.FixedCR
	sp.Set("id", rep.ProfileID).Set("tuned_bits", rep.TunedBits).
		Set("uplift_pct", rep.UpliftPct)
	return rep, nil
}

// buildCell encodes the (already filled) corpus once at k with the
// default assignment and accumulates the case statistics. Counts are
// additive across sets, and CompressedSize is linear in them, so the
// summed counts score the whole corpus at once.
func buildCell(ctx context.Context, corpus []*tcube.Set, k int) (*cell, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cdc, err := core.New(k)
	if err != nil {
		return nil, err
	}
	c := &cell{k: k}
	for _, s := range corpus {
		res, err := cdc.Encode(ctx, s, core.EncodeOptions{})
		if err != nil {
			return nil, err
		}
		for cs := core.CaseAll0; cs <= core.CaseMisMis; cs++ {
			c.counts[cs-1] += res.Counts.N(cs)
		}
	}
	return c, nil
}

// huffmanLengths builds the optimal prefix-code length vector for the
// case counts. Unseen cases weigh 0 and still get a codeword, so the
// encoder stays total. A Huffman tree over nine leaves is complete and
// at most eight deep, so every vector is Kraft-exact and within
// MaxCodeLen. Ties break by case index, then by merge order, so the
// result is deterministic.
func huffmanLengths(counts core.Counts) [core.NumCases]int {
	type node struct {
		weight int
		order  int // tie-break: stable across runs
		syms   []int
	}
	nodes := make([]*node, core.NumCases)
	for i := range nodes {
		nodes[i] = &node{weight: counts[i], order: i, syms: []int{i}}
	}
	var lens [core.NumCases]int
	next := core.NumCases
	for len(nodes) > 1 {
		sort.Slice(nodes, func(a, b int) bool {
			if nodes[a].weight != nodes[b].weight {
				return nodes[a].weight < nodes[b].weight
			}
			return nodes[a].order < nodes[b].order
		})
		a, b := nodes[0], nodes[1]
		merged := &node{weight: a.weight + b.weight, order: next, syms: append(a.syms, b.syms...)}
		next++
		for _, s := range merged.syms {
			lens[s]++
		}
		nodes = append([]*node{merged}, nodes[2:]...)
	}
	return lens
}

func crPct(orig, compressed int) float64 {
	if orig == 0 {
		return 0
	}
	return 100 * float64(orig-compressed) / float64(orig)
}
