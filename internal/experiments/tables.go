package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/ate"
	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// DefaultKs is the paper's Table II/III block-size sweep.
var DefaultKs = []int{4, 8, 12, 16, 20, 24, 28, 32}

// IBMKs is the Table VIII sweep for the large industrial circuits.
var IBMKs = []int{8, 16, 24, 32, 40, 48, 56, 64}

// benchmarkSets materializes the six ISCAS'89-profile workloads.
func benchmarkSets() ([]*tcube.Set, error) {
	sp := obs.Active().Span("experiments.workloads")
	var out []*tcube.Set
	for _, cs := range synth.Benchmarks {
		s, err := synth.MintestLike(cs.Name)
		if err != nil {
			sp.End()
			return nil, err
		}
		out = append(out, s)
	}
	sp.Set("sets", len(out)).End()
	return out, nil
}

func encode(set *tcube.Set, k int) (*core.Result, error) {
	cdc, err := core.New(k)
	if err != nil {
		return nil, err
	}
	// The fan-out is bit-identical to the serial path, so every
	// reproduced table stays deterministic.
	return cdc.Encode(context.Background(), set, core.EncodeOptions{Workers: runtime.GOMAXPROCS(0)})
}

// Table1 reproduces Table I: the 9C coding for K=8 — case symbols,
// codewords, decoder inputs and sizes.
func Table1() (*Table, error) {
	const k = 8
	a := core.DefaultAssignment()
	t := &Table{
		ID:     "Table I",
		Title:  fmt.Sprintf("9C coding for K=%d", k),
		Header: []string{"Case", "Symbol", "Description", "Codeword", "Decoder input", "Size (bits)"},
	}
	desc := map[core.Case]string{
		core.CaseAll0:     "All 0s",
		core.CaseAll1:     "All 1s",
		core.Case0Then1:   "Left half 0s, right half 1s",
		core.Case1Then0:   "Left half 1s, right half 0s",
		core.Case0ThenMis: "Left half 0s, right half mismatch",
		core.CaseMisThen0: "Left half mismatch, right half 0s",
		core.Case1ThenMis: "Left half 1s, right half mismatch",
		core.CaseMisThen1: "Left half mismatch, right half 1s",
		core.CaseMisMis:   "All mismatch",
	}
	for cs := core.CaseAll0; cs <= core.CaseMisMis; cs++ {
		input := a.Code(cs)
		if cs.LeftMismatch() {
			input += "+UUUU"
		}
		if cs.RightMismatch() {
			input += "+UUUU"
		}
		t.Rows = append(t.Rows, []string{
			cs.String(), cs.Symbol(), desc[cs], a.Code(cs), input,
			d(a.Len(cs) + cs.DataBits(k)),
		})
	}
	return t, nil
}

// Table2 reproduces Table II: CR% per benchmark over the K sweep.
func Table2() (*Table, error) {
	sets, err := benchmarkSets()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "Table II", Title: "Compression ratio CR% for different K (9C, single scan chain)"}
	t.Header = append([]string{"Circuit", "TD (bits)"}, kHeaders(DefaultKs)...)
	sums := make([]float64, len(DefaultKs))
	for _, set := range sets {
		row := []string{set.Name, d(set.Bits())}
		for i, k := range DefaultKs {
			r, err := encode(set, k)
			if err != nil {
				return nil, err
			}
			if k == 8 {
				// Guard every reported workload: decoding must not
				// disturb a single specified bit.
				if err := verify9CRoundTrip(set, r); err != nil {
					return nil, err
				}
			}
			row = append(row, f1(r.CR()))
			sums[i] += r.CR()
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"Avg", ""}
	for _, s := range sums {
		avg = append(avg, f1(s/float64(len(sets))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Table3 reproduces Table III: leftover don't-cares LX% over the K
// sweep, with each benchmark's total X density for reference.
func Table3() (*Table, error) {
	sets, err := benchmarkSets()
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "Table III", Title: "Leftover don't-cares LX% for different K"}
	t.Header = append([]string{"Circuit", "X%"}, kHeaders(DefaultKs)...)
	sums := make([]float64, len(DefaultKs))
	for _, set := range sets {
		row := []string{set.Name, f1(set.XPercent())}
		for i, k := range DefaultKs {
			r, err := encode(set, k)
			if err != nil {
				return nil, err
			}
			row = append(row, f1(r.LXPercent()))
			sums[i] += r.LXPercent()
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"Avg", ""}
	for _, s := range sums {
		avg = append(avg, f1(s/float64(len(sets))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// BestKFor returns the block size from ks maximizing CR for the set.
func BestKFor(set *tcube.Set, ks []int) (int, *core.Result, error) {
	var bestR *core.Result
	bestK := 0
	for _, k := range ks {
		r, err := encode(set, k)
		if err != nil {
			return 0, nil, err
		}
		if bestR == nil || r.CR() > bestR.CR() {
			bestR, bestK = r, k
		}
	}
	return bestK, bestR, nil
}

// Table4 reproduces Table IV: 9C at its best K against the published
// baselines (FDR, VIHC, MTC, selective Huffman), each tuned per
// circuit as in their own papers.
func Table4() (*Table, error) {
	sets, err := benchmarkSets()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table IV",
		Title:  "CR% comparison between techniques",
		Header: []string{"Circuit", "K", "9C", "FDR", "VIHC", "MTC", "SelHuff"},
	}
	sums := make([]float64, 5)
	for _, set := range sets {
		bestK, r9, err := BestKFor(set, DefaultKs)
		if err != nil {
			return nil, err
		}
		fdr, err := codecs.CompressSet(codecs.FDR{}, set)
		if err != nil {
			return nil, err
		}
		vihc, err := codecs.BestVIHC(set)
		if err != nil {
			return nil, err
		}
		mtc, err := codecs.BestMTC(set)
		if err != nil {
			return nil, err
		}
		sh, err := codecs.BestSelectiveHuffman(set)
		if err != nil {
			return nil, err
		}
		vals := []float64{r9.CR(), fdr.CR(), vihc.CR(), mtc.CR(), sh.CR()}
		row := []string{set.Name, d(bestK)}
		for i, v := range vals {
			row = append(row, f1(v))
			sums[i] += v
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"Avg", ""}
	for _, s := range sums {
		avg = append(avg, f1(s/float64(len(sets))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Table4Extended adds the §I-referenced schemes beyond the paper's
// four columns: Golomb, EFDR, alternating FDR and dictionary coding.
func Table4Extended() (*Table, error) {
	sets, err := benchmarkSets()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table IV (extended)",
		Title:  "CR% for the additional referenced codecs",
		Header: []string{"Circuit", "Golomb", "EFDR", "ARL-FDR", "Huffman", "Dict"},
	}
	for _, set := range sets {
		gol, err := codecs.BestGolomb(set)
		if err != nil {
			return nil, err
		}
		efdr, err := codecs.CompressSet(codecs.EFDR{}, set)
		if err != nil {
			return nil, err
		}
		arl, err := codecs.CompressSet(codecs.ARL{}, set)
		if err != nil {
			return nil, err
		}
		fh, err := codecs.CompressSet(&codecs.FullHuffman{B: 8}, set)
		if err != nil {
			return nil, err
		}
		dict, err := codecs.BestDictionary(set)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			set.Name, f1(gol.CR()), f1(efdr.CR()), f1(arl.CR()), f1(fh.CR()), f1(dict.CR()),
		})
	}
	return t, nil
}

// TATRatios is the paper's Table V clock-ratio sweep.
var TATRatios = []int{8, 16, 4}

// Table5 reproduces Table V: test-application-time reduction for each
// benchmark at its best K and several f_scan/f_ate ratios, validated
// against the cycle-accurate decoder.
func Table5() (*Table, error) {
	sets, err := benchmarkSets()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Table V",
		Title: "Test application time reduction TAT% (single scan chain)",
		Header: []string{"Circuit", "K", "CR%",
			fmt.Sprintf("p=%d", TATRatios[0]),
			fmt.Sprintf("p=%d", TATRatios[1]),
			fmt.Sprintf("p=%d", TATRatios[2])},
	}
	sums := make([]float64, len(TATRatios)+1)
	for _, set := range sets {
		bestK, r, err := BestKFor(set, DefaultKs)
		if err != nil {
			return nil, err
		}
		row := []string{set.Name, d(bestK), f1(r.CR())}
		sums[0] += r.CR()
		for i, p := range TATRatios {
			rep, err := ate.Session{P: p, FillSeed: 17}.RunSingleScan(r)
			if err != nil {
				return nil, err
			}
			if diff := rep.TATMeasured - rep.TATAnalytic; diff > 1e-9 || diff < -1e-9 {
				return nil, fmt.Errorf("experiments: %s p=%d: measured %.6f != analytic %.6f",
					set.Name, p, rep.TATMeasured, rep.TATAnalytic)
			}
			row = append(row, f1(rep.TATMeasured))
			sums[i+1] += rep.TATMeasured
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"Avg", ""}
	for _, s := range sums {
		avg = append(avg, f1(s/float64(len(sets))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Table6K is the block size used for the codeword statistics table.
const Table6K = 8

// Table6 reproduces Table VI: codeword occurrence frequencies N1..N9.
func Table6() (*Table, error) {
	sets, err := benchmarkSets()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Table VI",
		Title:  fmt.Sprintf("Codeword statistics N1..N9 (K=%d)", Table6K),
		Header: []string{"Circuit", "N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "N9"},
	}
	var sums [core.NumCases]float64
	for _, set := range sets {
		r, err := encode(set, Table6K)
		if err != nil {
			return nil, err
		}
		row := []string{set.Name}
		for cs := core.CaseAll0; cs <= core.CaseMisMis; cs++ {
			row = append(row, d(r.Counts.N(cs)))
			sums[cs-1] += float64(r.Counts.N(cs))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"Avg"}
	for _, s := range sums {
		avg = append(avg, f1(s/float64(len(sets))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Table7Circuits are the benchmarks the paper re-encodes with
// frequency-directed codeword assignment.
var Table7Circuits = []string{"s5378", "s9234", "s15850"}

// Table7 reproduces Table VII: CR% after reassigning codewords by
// measured occurrence frequency, next to the default assignment.
func Table7() (*Table, error) {
	t := &Table{ID: "Table VII", Title: "CR% after frequency-directed codeword reassignment (default in parentheses)"}
	t.Header = append([]string{"Circuit"}, kHeaders(DefaultKs)...)
	for _, name := range Table7Circuits {
		set, err := synth.MintestLike(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, k := range DefaultKs {
			def, err := encode(set, k)
			if err != nil {
				return nil, err
			}
			fd, err := core.NewWithAssignment(k, core.FrequencyDirected(def.Counts))
			if err != nil {
				return nil, err
			}
			rfd, err := fd.EncodeSet(set)
			if err != nil {
				return nil, err
			}
			if rfd.CR()+1e-9 < def.CR() {
				return nil, fmt.Errorf("experiments: %s K=%d: frequency-directed CR %.2f < default %.2f",
					name, k, rfd.CR(), def.CR())
			}
			row = append(row, fmt.Sprintf("%.1f (%.1f)", rfd.CR(), def.CR()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table8 reproduces Table VIII: 9C on the two large industrial
// circuits over the wide-K sweep. scale (≥ 1) divides the pattern
// count so tests can run a reduced-volume version; use 1 for the
// paper-sized experiment.
func Table8(scale int) (*Table, error) {
	if scale < 1 {
		scale = 1
	}
	t := &Table{ID: "Table VIII", Title: "CR% for two large industrial circuits"}
	t.Header = append([]string{"Circuit", "X%", "TD (bits)"}, kHeaders(IBMKs)...)
	for _, cs := range synth.IBMCircuits {
		prof := synth.CubeProfileFor(cs, 1234)
		prof.Patterns /= scale
		if prof.Patterns < 1 {
			prof.Patterns = 1
		}
		set, err := prof.Generate()
		if err != nil {
			return nil, err
		}
		row := []string{cs.Name, f1(set.XPercent()), d(set.Bits())}
		for _, k := range IBMKs {
			r, err := encode(set, k)
			if err != nil {
				return nil, err
			}
			row = append(row, f1(r.CR()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func kHeaders(ks []int) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("K=%d", k)
	}
	return out
}

// verify9CRoundTrip re-decodes an encoding and confirms no specified
// bit was disturbed; the table harness calls it as a guard on every
// workload it reports.
func verify9CRoundTrip(set *tcube.Set, r *core.Result) (err error) {
	sp := obs.Active().Span("experiments.verify").Set("set", set.Name).Set("k", r.K)
	defer func() {
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}()
	cdc, err := core.NewWithAssignment(r.K, r.Assign)
	if err != nil {
		return err
	}
	dec, err := cdc.DecodeSet(r.Stream, set.Width(), set.Len())
	if err != nil {
		return err
	}
	if !set.Covers(dec) {
		return fmt.Errorf("experiments: decode of %s contradicts source", set.Name)
	}
	return nil
}
