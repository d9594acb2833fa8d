// Command bench is the end-to-end benchmark of ninecd and ninecd-lb:
// 01X text in, a v4 container out (or the reverse), over HTTP, on
// Mintest-profile traffic, with a per-layer ledger from a separate
// traced run. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload mintest-encode -seed 1 -seconds 20 -trace 0
//	(cd bench && go run . -seed 1)              # all workloads, both runs
//	(cd bench && go run . compare PARENT CHANGE) # compare two sets of runs
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// lagLimitMS is the dispatcher lateness above which an open-loop run is
// marked invalid: the schedule, not the daemon, would be shaping it.
const lagLimitMS = 2.0

func realMain(ctx context.Context, args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same bytes")
	wl := fs.String("workload", "", "workload to run (default: all)")
	seconds := fs.Float64("seconds", 55, "measured seconds per run: 27/55 lo, 8/55 hi, about 15/55 closed")
	trace := fs.String("trace", "", `"0": timed run only; "1" or FILE: traced run only, spans to FILE; default: both`)
	out := fs.String("out", "", "directory for the run JSON (default .bench_build/runs under the repository)")
	smoke := fs.Bool("smoke", false, "1 s per open-loop phase and 50 closed ops: a correctness check, not a measurement")
	root := fs.String("root", "", "repository root (default: found from the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *root == "" {
		r, err := findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		*root = r
	}
	opt := options{root: *root, seed: *seed, seconds: *seconds, smoke: *smoke, timed: true, traced: true}
	if *out == "" {
		*out = filepath.Join(*root, ".bench_build", "runs")
	}
	switch *trace {
	case "":
	case "0":
		opt.traced = false
	default:
		opt.timed = false
		if *trace != "1" {
			opt.spans = *trace
		}
	}
	var ws []*workload
	if *wl == "" {
		ws = workloads
	} else {
		w, err := workloadByName(*wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}

	results, err := runAll(ctx, opt, ws, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return report(stdout, results, opt)
}

// runAll builds the daemons once and runs the workloads: in turn, or
// side by side for a smoke run.
func runAll(ctx context.Context, opt options, ws []*workload, out string) ([]*result, error) {
	build := filepath.Join(opt.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	opt.work = work
	if err := buildDaemons(ctx, opt.root, filepath.Join(work, "bin")); err != nil {
		return nil, err
	}
	env := environment(opt.root)
	results := make([]*result, len(ws))
	errs := make([]error, len(ws))
	one := func(i int) {
		start := time.Now()
		res, err := run(ctx, opt, ws[i])
		if err == nil {
			fmt.Fprintf(os.Stderr, "bench: %s done in %.1f s\n", ws[i].name, time.Since(start).Seconds())
			err = writeRecord(out, env, opt, res)
		}
		results[i], errs[i] = res, err
	}
	if opt.smoke {
		// A smoke run checks correctness, not speed, so the workloads
		// share the machine to finish sooner.
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				one(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range ws {
			if one(i); errs[i] != nil {
				break
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, writeSpans(opt, results, out)
}

// writeSpans writes the traced runs' spans as NDJSON: to the -trace
// file when one was named, else one file per workload under out.
func writeSpans(opt options, results []*result, out string) error {
	if !opt.traced {
		return nil
	}
	if opt.spans != "" {
		var all tracer
		for _, res := range results {
			all.spans = append(all.spans, res.spans...)
		}
		return all.writeNDJSON(opt.spans)
	}
	for _, res := range results {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.ndjson", res.workload, opt.seed))
		if err := (&tracer{spans: res.spans}).writeNDJSON(path); err != nil {
			return err
		}
	}
	return nil
}

// findRoot walks up from the working directory to the repository's
// go.mod (module repro).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod of module repro) above the working directory")
		}
		dir = parent
	}
}

// env describes where a run was measured.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DaemonProc int    `json:"daemon_gomaxprocs"`
}

func environment(root string) env {
	e := env{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), DaemonProc: daemonProcs}
	// A checkout that is not a repository has no commit to report.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return e
}

// record is the run JSON that compare reads.
type record struct {
	env
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Timed     bool             `json:"timed"`
	Traced    bool             `json:"traced"`
	Valid     bool             `json:"valid"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Time      string           `json:"time"`
}

func writeRecord(dir string, e env, o options, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	now := time.Now().UTC()
	rec := record{env: e, Workload: res.workload, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
		Timed: o.timed, Traced: o.traced, Valid: res.lagP99 <= lagLimitMS, Correct: len(res.wrong) == 0,
		Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics, Time: now.Format(time.RFC3339)}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("run-%s-seed%d-%s.json", res.workload, o.seed, now.Format("20060102T150405.000000000"))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// report prints one "workload metric value unit" line per metric, then
// the one-line JSON result: with one workload its metrics are the
// metric names; with several they are "workload/metric".
func report(w io.Writer, results []*result, opt options) int {
	type out struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	o := out{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		for i, err := range res.wrong {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "bench: %s: %d more wrong responses\n", res.workload, len(res.wrong)-i)
				break
			}
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", res.workload, err)
		}
		if res.lagP99 > lagLimitMS {
			fmt.Fprintf(os.Stderr, "bench: %s: run invalid: dispatcher lag p99 %.3f ms > %.0f ms\n", res.workload, res.lagP99, lagLimitMS)
		}
		o.Correct = o.Correct && len(res.wrong) == 0
		o.Attempted += res.attempted
		o.Failed += res.failed
		var defs []metricDef
		if opt.timed {
			defs = append(append(defs, endToEnd...), ungated...)
		}
		if opt.traced {
			for _, d := range perLayer {
				defs = append(defs, d.metricDef)
			}
		}
		for _, d := range defs {
			v := res.metrics[d.Name]
			line := fmt.Sprintf("%s %s %.6g %s", res.workload, d.Name, v.Value, v.Unit)
			if v.N > 0 {
				line += fmt.Sprintf(" n=%d", v.N)
			}
			fmt.Fprintln(w, line)
			if slices.Contains(ungated, d) {
				continue // no bound, so not part of the result
			}
			key := d.Name
			if len(results) > 1 {
				key = res.workload + "/" + d.Name
			}
			o.Metrics[key] = value{Value: v.Value, Unit: v.Unit}
		}
	}
	data, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(w, string(data))
	if !o.Correct {
		return 1
	}
	return 0
}
