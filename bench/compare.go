package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// compareMain reads the run JSONs of a parent and a change and prints,
// per workload and metric, each side's median and quartiles, the
// pairwise wins of the change, and a verdict from BENCHMARK.json's
// bound and direction (choosing-metrics guide §6 and §8).
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "", "BENCHMARK.json (default: the repository's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	if *specPath == "" {
		root, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 1
		}
		*specPath = filepath.Join(root, "BENCHMARK.json")
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	parent, err := loadRecords(fs.Arg(0))
	if err == nil && len(parent) == 0 {
		err = fmt.Errorf("no run JSON in %s", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	change, err := loadRecords(fs.Arg(1))
	if err == nil && len(change) == 0 {
		err = fmt.Errorf("no run JSON in %s", fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	writeComparison(w, compare(sp, parent, change))
	return 0
}

// loadRecords reads every run JSON in dir, skipping smoke runs.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Smoke {
			recs = append(recs, r)
		}
	}
	return recs, nil
}

// row is one workload x metric comparison.
type row struct {
	workload, metric string
	unit             string
	parent, change   []float64
	wins, pairs      int
	verdict          string
}

func compare(sp *spec, parent, change []record) []row {
	type key struct{ workload, metric string }
	type side struct {
		unit string
		p, c map[int64][]float64
	}
	sides := map[key]*side{}
	add := func(recs []record, isChange bool) {
		for _, r := range recs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				s := sides[k]
				if s == nil {
					s = &side{unit: v.Unit, p: map[int64][]float64{}, c: map[int64][]float64{}}
					sides[k] = s
				}
				if isChange {
					s.c[r.Seed] = append(s.c[r.Seed], v.Value)
				} else {
					s.p[r.Seed] = append(s.p[r.Seed], v.Value)
				}
			}
		}
	}
	add(parent, false)
	add(change, true)

	var rows []row
	for k, s := range sides {
		m, _ := sp.metric(k.metric) // a metric BENCHMARK.json omits has no bound
		rw := row{workload: k.workload, metric: k.metric, unit: s.unit}
		for seed, pv := range s.p {
			rw.parent = append(rw.parent, pv...)
			cv := s.c[seed]
			for i := 0; i < len(pv) && i < len(cv); i++ {
				rw.pairs++
				if better(m.Better, cv[i], pv[i]) {
					rw.wins++
				}
			}
		}
		for _, cv := range s.c {
			rw.change = append(rw.change, cv...)
		}
		if len(rw.parent) == 0 || len(rw.change) == 0 {
			continue
		}
		rw.verdict = verdict(m, rw)
		rows = append(rows, rw)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// verdict applies the guide's rules. improved: the change wins at least
// nine tenths of the pairs and the medians differ by more than the
// parent's quartile spread. regressed: the change's median is worse by
// more than the bound. unresolved: the parent's own spread is wider
// than the bound and not every change run beats every parent run.
// Per-layer metrics have no bound and get "-".
func verdict(m specMetric, r row) string {
	if m.Bound == nil {
		return "-"
	}
	bound := *m.Bound
	pm, cm := midMedian(r.parent), midMedian(r.change)
	q1, q3 := quartiles(r.parent)
	if r.pairs > 0 && 10*r.wins >= 9*r.pairs && math.Abs(cm-pm) > q3-q1 && better(m.Better, cm, pm) {
		return "improved"
	}
	limit := pm * (1 + bound)
	worse := cm > limit
	if m.Better == "higher" {
		limit = pm * (1 - bound)
		worse = cm < limit
	}
	if worse {
		return "regressed"
	}
	allBetter := true
	for _, c := range r.change {
		for _, p := range r.parent {
			allBetter = allBetter && better(m.Better, c, p)
		}
	}
	if (q3-q1) > bound*math.Abs(pm) && !allBetter {
		return "unresolved"
	}
	return "no worse"
}

// midMedian is the median with the two middle values averaged.
func midMedian(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(values, n=4) (exclusive).
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func writeComparison(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, r := range rows {
		pq1, pq3 := quartiles(r.parent)
		cq1, cq3 := quartiles(r.change)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
			r.workload, r.metric, r.unit, midMedian(r.parent), pq1, pq3,
			midMedian(r.change), cq1, cq3, r.wins, r.pairs, r.verdict)
	}
	tw.Flush()
}
