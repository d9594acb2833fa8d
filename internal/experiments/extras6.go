package experiments

import (
	"context"
	"fmt"

	"repro/internal/codecopt"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// ExtraCodecopt measures what corpus-tuned 9C codes buy over the
// paper's fixed code (experiment X9). For each ISCAS workload the
// codecopt closed form picks the case→codeword assignment, block size,
// and X-fill for that circuit's cubes; the uplift column is tuned CR
// minus the best fixed-K CR in percentage points. The final
// row trains one shared profile on the whole corpus — the fleet
// deployment shape, where every daemon serves a single tuned codec.
// The result is a function of the corpus alone, so this table is
// reproducible bit for bit.
func ExtraCodecopt() (*Table, error) {
	t := &Table{
		ID:     "Extra: corpus-tuned codecs",
		Title:  "Tuned 9C profiles vs the fixed paper code (codecopt Huffman per K and fill)",
		Header: []string{"Circuit", "Fixed CR%", "Tuned CR%", "Uplift pp", "K", "Fill"},
	}
	ctx := context.Background()
	var corpus []*tcube.Set
	for _, cs := range synth.Benchmarks {
		set, err := synth.MintestLike(cs.Name)
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, set)
		rep, err := codecopt.Search(ctx, []*tcube.Set{set}, codecopt.Options{})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, codecoptRow(cs.Name, rep))
	}
	rep, err := codecopt.Search(ctx, corpus, codecopt.Options{})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, codecoptRow("ALL (one profile)", rep))
	return t, nil
}

func codecoptRow(name string, rep *codecopt.Report) []string {
	return []string{
		name,
		fmt.Sprintf("%.2f", rep.FixedCR),
		fmt.Sprintf("%.2f", rep.TunedCR),
		fmt.Sprintf("%+.2f", rep.UpliftPct),
		d(rep.Profile.K),
		string(rep.Profile.Fill),
	}
}
