package repro

import (
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"testing"
)

// pairLines renders per-pair ns/op of one benchmark as the "SIDE PAIR
// NAME NS" lines scripts/bench_pairs.sh writes; a nil side has none.
func pairLines(name string, base, head []float64) string {
	var b strings.Builder
	for i, ns := range base {
		fmt.Fprintf(&b, "base %d %s %g\n", i+1, name, ns)
	}
	for i, ns := range head {
		fmt.Fprintf(&b, "head %d %s %g\n", i+1, name, ns)
	}
	return b.String()
}

// runVerdict feeds pairs to scripts/bench_verdict.awk and returns each
// benchmark's verdict ("ok", "FAIL", "base only" or "head only") and
// whether the rule failed any benchmark.
func runVerdict(t *testing.T, pairs string) (map[string]string, bool) {
	t.Helper()
	if _, err := exec.LookPath("awk"); err != nil {
		t.Skip("awk not installed")
	}
	cmd := exec.Command("awk", "-f", "scripts/bench_verdict.awk")
	cmd.Stdin = strings.NewReader(pairs)
	out, err := cmd.Output()
	var exit *exec.ExitError
	failed := errors.As(err, &exit) && exit.ExitCode() == 1
	if err != nil && !failed {
		t.Fatalf("bench_verdict.awk: %v\n%s", err, out)
	}
	verdicts := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) < 2 || strings.HasPrefix(line, "bench verdict:") {
			continue
		}
		v := f[len(f)-1]
		if v == "only" {
			v = f[len(f)-2] + " only"
		}
		verdicts[f[0]] = v
	}
	if failed != strings.Contains(string(out), "bench verdict:") {
		t.Fatalf("exit status and summary line disagree:\n%s", out)
	}
	return verdicts, failed
}

// TestBenchVerdict pins scripts/bench_pairs.sh's rule: a benchmark fails only
// when the working tree's median ns/op is worse than BASE's by more
// than 10% and BASE wins most of the pairs.
func TestBenchVerdict(t *testing.T) {
	flat := func(ns float64) []float64 { return []float64{ns, ns, ns, ns, ns, ns} }
	cases := []struct {
		name       string
		base, head []float64
		want       string
	}{
		// 8% slower in every pair: inside the bound.
		{"within", flat(100), flat(108), "ok"},
		// Median 45% worse, but the working tree wins 4 of 6 pairs: the
		// shift is base's own spread, not a slowdown.
		{"overHeadWins", []float64{100, 100, 100, 300, 300, 300}, []float64{99, 500, 500, 290, 290, 290}, "ok"},
		// 20% slower and base wins 4 of 6 pairs.
		{"overBaseWins", flat(100), []float64{120, 120, 120, 120, 90, 90}, "FAIL"},
		// 12.5% slower, but a 3/3 split is no majority.
		{"overTied", flat(100), []float64{130, 130, 130, 95, 95, 95}, "ok"},
		// 12.5% slower, base wins 3 pairs and 3 are even: an even pair
		// is no win for base.
		{"overEvenPairs", flat(100), []float64{125, 125, 125, 100, 100, 100}, "ok"},
		{"baseOnly", flat(100), nil, "base only"},
		{"headOnly", nil, flat(100), "head only"},
	}
	var pairs string
	for _, c := range cases {
		pairs += pairLines(c.name, c.base, c.head)
	}
	got, failed := runVerdict(t, pairs)
	for _, c := range cases {
		if got[c.name] != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got[c.name], c.want)
		}
	}
	if !failed {
		t.Error("verdict passed with a failing benchmark")
	}

	// One-sided benchmarks alone do not fail the verdict.
	if _, failed := runVerdict(t, pairLines("gone", flat(100), nil)+pairLines("new", nil, flat(100))); failed {
		t.Error("verdict failed on one-sided benchmarks only")
	}

	// A -P suffix names a benchmark of its own: X-2 regressing does not
	// fold into X, nor X into X-2.
	got, failed = runVerdict(t, pairLines("core.X", flat(100), flat(100))+pairLines("core.X-2", flat(100), flat(150)))
	if got["core.X"] != "ok" || got["core.X-2"] != "FAIL" || !failed {
		t.Errorf("cpu-suffixed names: verdicts %v (failed %v), want core.X ok and core.X-2 FAIL", got, failed)
	}
}
