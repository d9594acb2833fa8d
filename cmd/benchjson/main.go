// Command benchjson maintains the repository's perf trajectory: it
// converts `go test -bench` text output into schema-validated
// BENCH_<stamp>.json snapshots (see internal/obs.BenchSnapshot) and
// validates existing snapshot and telemetry JSON.
//
// Usage:
//
//	go test -bench ... | benchjson -dir .   # write BENCH_<stamp>.json
//	benchjson -validate BENCH_*.json        # validate snapshot files
//	ninec -json ... | benchjson -checkjson  # validate a JSON value stream
//	benchjson -gate -dir .                  # fail on hot-path regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// gateDefaultMatch selects the hot-path metrics the regression gate
// guards: the serving-path encode/decode benchmarks (including the
// per-K kernel variants), block classification, the v4 wire layers
// (streamed decode, chunk read, v4 framing, text output), the 01X parse
// stage (tcube.Read and its ParseCube kernel), the ninecd handler stack
// (ServeEncode, ServeDecode), and the fault-sim campaign. Cold-path and
// setup benchmarks are deliberately excluded so the gate stays
// low-noise.
const gateDefaultMatch = `^Benchmark(EncodeSet|DecodeSet|EncodeCube|DecodeCube|Classify|StreamDecode|ChunkRead|WriteV4|AppendText|ParseCube|Read|Serve|Campaign)`

func main() {
	dir := flag.String("dir", ".", "directory receiving the BENCH_<stamp>.json snapshot")
	stamp := flag.String("stamp", "", "override the snapshot stamp (default: current UTC time)")
	validate := flag.Bool("validate", false, "validate the snapshot files given as arguments instead of writing one")
	checkJSON := flag.Bool("checkjson", false, "require stdin to be a non-empty stream of valid JSON values")
	gate := flag.Bool("gate", false, "diff the newest two BENCH_*.json in -dir and fail on hot-path regression")
	gateThreshold := flag.Float64("gate-threshold", 10, "ns/op regression percentage the gate tolerates")
	gateMatch := flag.String("gate-match", gateDefaultMatch, "regexp selecting the benchmark names the gate checks")
	flag.Parse()

	var err error
	switch {
	case *validate:
		err = runValidate(flag.Args())
	case *checkJSON:
		err = runCheckJSON(os.Stdin)
	case *gate:
		err = runGate(os.Stderr, *dir, *gateThreshold, *gateMatch)
	default:
		err = runSnapshot(os.Stdin, *dir, *stamp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runSnapshot parses bench output from r and writes one validated
// snapshot file into dir.
func runSnapshot(r io.Reader, dir, stamp string) error {
	snap, err := obs.ParseBenchOutput(r)
	if err != nil {
		return err
	}
	if len(snap.Results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}
	snap.Results = foldBest(snap.Results)
	stamp, path, err := resolveSnapshotPath(dir, stamp)
	if err != nil {
		return err
	}
	snap.Schema = obs.BenchSchema
	snap.Stamp = stamp
	snap.GoVersion = runtime.Version()
	snap.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if snap.GOOS == "" {
		snap.GOOS = runtime.GOOS
	}
	if snap.GOARCH == "" {
		snap.GOARCH = runtime.GOARCH
	}
	if err := snap.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d results)\n", path, len(snap.Results))
	return nil
}

// foldBest collapses repeated benchmark names (a `-count=N` run) into
// one result per name, keeping the sample with the lowest ns/op and
// preserving first-occurrence order. On a shared or single-CPU machine
// a benchmark's true cost is its best observed run — slower repeats
// measure scheduler interference, not the code — so the snapshot
// records min-of-N and the regression gate compares real speed, not
// whichever run drew the noisiest timeslice.
func foldBest(results []obs.BenchResult) []obs.BenchResult {
	idx := make(map[string]int, len(results))
	out := results[:0]
	for _, r := range results {
		if i, ok := idx[r.Name]; ok {
			if r.NsPerOp < out[i].NsPerOp {
				out[i] = r
			}
			continue
		}
		idx[r.Name] = len(out)
		out = append(out, r)
	}
	return out
}

// resolveSnapshotPath picks a collision-free snapshot path. The stamp
// IS the filename (BENCH_<stamp>.json — the repo's snapshot tests pin
// that equality), so disambiguation must move the stamp, not suffix
// the name: an auto-generated stamp that collides with an existing
// file is bumped forward one second until free, while an explicit
// -stamp collision is an error — the caller asked for that exact
// stamp, silently rewriting history under it is the bug this guards
// against.
func resolveSnapshotPath(dir, stamp string) (string, string, error) {
	explicit := stamp != ""
	if !explicit {
		stamp = time.Now().UTC().Format(obs.BenchStampLayout)
	}
	for {
		path := filepath.Join(dir, "BENCH_"+stamp+".json")
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return stamp, path, nil
		} else if err != nil {
			return "", "", err
		}
		if explicit {
			return "", "", fmt.Errorf("snapshot %s already exists (explicit -stamp %s; refusing to overwrite)", path, stamp)
		}
		t, err := time.Parse(obs.BenchStampLayout, stamp)
		if err != nil {
			return "", "", fmt.Errorf("internal: bad generated stamp %q: %w", stamp, err)
		}
		stamp = t.Add(time.Second).Format(obs.BenchStampLayout)
	}
}

// envEpoch is a snapshot's environment fingerprint. Two snapshots are
// comparable only within one epoch: a ns/op delta across machines,
// architectures, or GOMAXPROCS settings measures the migration, not
// the code.
func envEpoch(s *obs.BenchSnapshot) string {
	return fmt.Sprintf("%s/%s cpu %q procs %d", s.GOOS, s.GOARCH, s.CPU, s.GOMAXPROCS)
}

// runGate diffs the newest BENCH_*.json snapshot in dir against the
// newest older snapshot from the SAME environment epoch (GOOS, GOARCH,
// CPU, GOMAXPROCS) and fails when any gate-matched benchmark regressed
// by more than threshold percent in ns/op. Foreign-epoch snapshots in
// between are stepped over rather than ending the comparison — a
// machine migration used to blind the gate forever after, because the
// newest two snapshots would disagree on environment from then on
// whenever history interleaved. Situations where no comparison is
// possible — fewer than two snapshots, or no older same-epoch
// snapshot — skip gracefully (exit 0 with a message) so fresh clones
// and migrated machines don't break `make check`.
func runGate(w io.Writer, dir string, threshold float64, match string) error {
	re, err := regexp.Compile(match)
	if err != nil {
		return fmt.Errorf("-gate-match: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	// The stamp layout makes lexicographic order chronological.
	sort.Strings(paths)
	if len(paths) < 2 {
		fmt.Fprintf(w, "benchjson: gate skipped: %d snapshot(s) in %s, need 2\n", len(paths), dir)
		return nil
	}
	curPath := paths[len(paths)-1]
	cur, err := readSnapshotFile(curPath)
	if err != nil {
		return err
	}
	var prev *obs.BenchSnapshot
	var prevPath string
	for i := len(paths) - 2; i >= 0; i-- {
		s, err := readSnapshotFile(paths[i])
		if err != nil {
			return err
		}
		if envEpoch(s) == envEpoch(cur) {
			prev, prevPath = s, paths[i]
			break
		}
	}
	if prev == nil {
		fmt.Fprintf(w, "benchjson: gate skipped: environment changed — no snapshot older than %s matches its epoch (%s)\n",
			filepath.Base(curPath), envEpoch(cur))
		return nil
	}

	base := make(map[string]obs.BenchResult, len(prev.Results))
	for _, r := range prev.Results {
		base[r.Name] = r
	}
	compared, regressed := 0, 0
	for _, r := range cur.Results {
		if !re.MatchString(r.Name) {
			continue
		}
		p, ok := base[r.Name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		compared++
		delta := (r.NsPerOp - p.NsPerOp) / p.NsPerOp * 100
		if delta > threshold {
			regressed++
			fmt.Fprintf(w, "benchjson: REGRESSION %s: %.0f ns/op -> %.0f ns/op (%+.1f%%, limit %+.1f%%)\n",
				r.Name, p.NsPerOp, r.NsPerOp, delta, threshold)
		} else {
			fmt.Fprintf(w, "benchjson: ok %s: %.0f ns/op -> %.0f ns/op (%+.1f%%)\n",
				r.Name, p.NsPerOp, r.NsPerOp, delta)
		}
	}
	if compared == 0 {
		fmt.Fprintf(w, "benchjson: gate skipped: no benchmarks matching %q in both snapshots\n", match)
		return nil
	}
	if regressed > 0 {
		return fmt.Errorf("gate: %d of %d hot-path benchmark(s) regressed >%.1f%% between %s and %s",
			regressed, compared, threshold, filepath.Base(prevPath), filepath.Base(curPath))
	}
	fmt.Fprintf(w, "benchjson: gate passed: %d hot-path benchmark(s) within %.1f%% (%s vs %s)\n",
		compared, threshold, filepath.Base(curPath), filepath.Base(prevPath))
	return nil
}

// readSnapshotFile opens and schema-validates one snapshot.
func readSnapshotFile(path string) (*obs.BenchSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := obs.ReadBenchSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// runValidate checks each named snapshot file against the schema.
func runValidate(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("-validate needs snapshot files as arguments")
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		snap, err := obs.ReadBenchSnapshot(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s ok (%d results, stamp %s)\n",
			path, len(snap.Results), snap.Stamp)
	}
	return nil
}

// runCheckJSON requires r to carry one or more valid JSON values and
// nothing else — the telemetry smoke gate for CLI -json/-metrics
// output.
func runCheckJSON(r io.Reader) error {
	dec := json.NewDecoder(r)
	n := 0
	for {
		var v any
		if err := dec.Decode(&v); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("invalid JSON value after %d valid values: %w", n, err)
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("no JSON values on stdin")
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d JSON values ok\n", n)
	return nil
}
