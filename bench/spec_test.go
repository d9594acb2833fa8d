package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if !slices.Contains([]string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}, k) {
			t.Errorf("unexpected key %q", k)
		}
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(sp.Paths, "bench") {
		t.Errorf("paths %v does not cover bench/", sp.Paths)
	}
	if !slices.Contains(sp.Command, "bench/run.sh") {
		t.Errorf("command %v does not run bench/run.sh", sp.Command)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}

	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var wls []string
	for _, w := range sp.Workloads {
		wls = append(wls, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
		if w.Why == "" || strings.ContainsRune(w.Why, '\n') || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(wls) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(wls), len(workloads))
	}

	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, n := range wls {
		checkName(n)
	}

	if len(sp.EndToEnd) > 16 || len(sp.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, the benchmark reports %d (at most 16)", len(sp.EndToEnd), len(endToEnd))
	}
	var e2e []string
	for i, m := range sp.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, m.Name)
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Bound == nil {
			t.Errorf("end-to-end %s needs a unit, a direction and a bound", m.Name)
			continue
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if i < len(endToEnd) && (endToEnd[i] != metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("end-to-end %d is %v in BENCHMARK.json, %v in the benchmark", i, m, endToEnd[i])
		}
	}
	if m, ok := sp.metric("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Error(`BENCHMARK.json needs setup_s in "s", lower is better`)
	}

	if len(sp.PerLayer) > 128 || len(sp.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, the benchmark reports %d (at most 128)", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range sp.PerLayer {
		checkName(m.Name)
		if m.Unit == "" || m.Bound != nil || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: want a unit, a direction and no bound", m.Name)
		}
		if i >= len(perLayer) || perLayer[i].metricDef != (metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("per-layer %d is %s in BENCHMARK.json but not at that place in the benchmark", i, m.Name)
			continue
		}
		// Each per-layer metric names the end-to-end metrics and the
		// workloads it should move.
		d := perLayer[i]
		if len(d.Moves) == 0 || len(d.On) == 0 {
			t.Errorf("per-layer %s names no end-to-end metric or workload to move", m.Name)
		}
		for _, x := range d.Moves {
			if !slices.Contains(e2e, x) {
				t.Errorf("per-layer %s moves %q, not an end-to-end metric", m.Name, x)
			}
		}
		for _, w := range d.On {
			if !slices.Contains(wls, w) {
				t.Errorf("per-layer %s names workload %q, not in BENCHMARK.json", m.Name, w)
			}
		}
	}
}

// TestBenchSmoke runs every workload against the real daemons for about
// a second per phase: it checks correctness and that every metric of
// BENCHMARK.json is printed, and asserts no timing.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemons")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := realMain(context.Background(), []string{"-smoke", "-seed", "1", "-out", t.TempDir()}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
	}
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct=%v\n%s", code, res.Correct, out.String())
	}
	if res.Attempted == 0 {
		t.Fatal("no requests attempted")
	}
	printed := map[string]bool{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 4 {
			printed[f[0]+" "+f[1]+" "+f[3]] = true
		}
	}
	for _, w := range sp.Workloads {
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			if !printed[w.Name+" "+m.Name+" "+m.Unit] {
				t.Errorf("%s: %s (%s) not printed", w.Name, m.Name, m.Unit)
			}
		}
	}
}
