package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"time"

	"repro/internal/obs"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: Example CPU @ 2.00GHz
BenchmarkEncodeSet-8   	     532	   2147193 ns/op	  30.52 MB/s
BenchmarkEncodeCube-8  	  120000	      9521 ns/op	  26.88 MB/s	     512 B/op	       3 allocs/op
PASS
ok  	repro/internal/core	3.021s
`

func TestRunSnapshotWritesValidFile(t *testing.T) {
	dir := t.TempDir()
	stamp := "20260806T120000Z"
	if err := runSnapshot(strings.NewReader(benchOutput), dir, stamp); err != nil {
		t.Fatalf("runSnapshot: %v", err)
	}
	path := filepath.Join(dir, "BENCH_"+stamp+".json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	defer f.Close()
	snap, err := obs.ReadBenchSnapshot(f)
	if err != nil {
		t.Fatalf("ReadBenchSnapshot: %v", err)
	}
	if snap.Schema != obs.BenchSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, obs.BenchSchema)
	}
	if snap.Stamp != stamp {
		t.Errorf("stamp = %q, want %q", snap.Stamp, stamp)
	}
	if len(snap.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(snap.Results))
	}
	if snap.Results[0].Name != "BenchmarkEncodeSet" {
		t.Errorf("first result = %q", snap.Results[0].Name)
	}
	if snap.Results[0].NsPerOp != 2147193 {
		t.Errorf("ns/op = %v", snap.Results[0].NsPerOp)
	}
	if snap.GoVersion == "" || snap.GOMAXPROCS < 1 {
		t.Errorf("environment not filled: go=%q procs=%d", snap.GoVersion, snap.GOMAXPROCS)
	}
}

// TestRunSnapshotFoldsRepeatedRuns pins the -count=N contract: a run
// repeating each benchmark keeps one result per name — the fastest —
// in first-occurrence order, so scheduler noise in slower repeats
// never reaches the snapshot the gate diffs.
func TestRunSnapshotFoldsRepeatedRuns(t *testing.T) {
	const repeated = `goos: linux
goarch: amd64
cpu: Example CPU @ 2.00GHz
BenchmarkEncodeSet-8   	     532	   2147193 ns/op	  30.52 MB/s
BenchmarkEncodeCube-8  	  120000	      9521 ns/op	  26.88 MB/s
BenchmarkEncodeSet-8   	     600	   1900000 ns/op	  34.49 MB/s
BenchmarkEncodeCube-8  	  110000	     10400 ns/op	  24.61 MB/s
BenchmarkEncodeSet-8   	     550	   2050000 ns/op	  31.97 MB/s
PASS
`
	dir := t.TempDir()
	stamp := "20260808T120000Z"
	if err := runSnapshot(strings.NewReader(repeated), dir, stamp); err != nil {
		t.Fatalf("runSnapshot: %v", err)
	}
	f, err := os.Open(filepath.Join(dir, "BENCH_"+stamp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadBenchSnapshot(f)
	if err != nil {
		t.Fatalf("ReadBenchSnapshot: %v", err)
	}
	if len(snap.Results) != 2 {
		t.Fatalf("results = %d, want 2 (folded)", len(snap.Results))
	}
	if snap.Results[0].Name != "BenchmarkEncodeSet" || snap.Results[1].Name != "BenchmarkEncodeCube" {
		t.Fatalf("order = %q, %q; want first-occurrence order", snap.Results[0].Name, snap.Results[1].Name)
	}
	if snap.Results[0].NsPerOp != 1900000 {
		t.Errorf("EncodeSet ns/op = %v, want the 1900000 minimum", snap.Results[0].NsPerOp)
	}
	if snap.Results[0].MBPerSec != 34.49 {
		t.Errorf("EncodeSet MB/s = %v, want 34.49 (the whole best sample, not a field mix)", snap.Results[0].MBPerSec)
	}
	if snap.Results[1].NsPerOp != 9521 {
		t.Errorf("EncodeCube ns/op = %v, want the 9521 minimum", snap.Results[1].NsPerOp)
	}
}

func TestRunSnapshotRejectsEmptyInput(t *testing.T) {
	if err := runSnapshot(strings.NewReader("PASS\n"), t.TempDir(), ""); err == nil {
		t.Fatal("want error for input without benchmark lines")
	}
}

func TestRunValidate(t *testing.T) {
	dir := t.TempDir()
	stamp := "20260806T120001Z"
	if err := runSnapshot(strings.NewReader(benchOutput), dir, stamp); err != nil {
		t.Fatalf("runSnapshot: %v", err)
	}
	good := filepath.Join(dir, "BENCH_"+stamp+".json")
	if err := runValidate([]string{good}); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"wrong/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runValidate([]string{bad}); err == nil {
		t.Error("bad snapshot accepted")
	}
	if err := runValidate(nil); err == nil {
		t.Error("empty argument list accepted")
	}
}

// TestResolveSnapshotCollision pins the stamp-collision fix: two runs
// landing in the same second must not silently overwrite each other.
// Auto stamps bump forward one second until free (the filename must
// stay BENCH_<stamp>.json, so the stamp moves, not a suffix); an
// explicit -stamp collision is a refusal.
func TestResolveSnapshotCollision(t *testing.T) {
	dir := t.TempDir()
	stamp := "20260807T090000Z"
	if err := runSnapshot(strings.NewReader(benchOutput), dir, stamp); err != nil {
		t.Fatalf("first runSnapshot: %v", err)
	}

	// Explicit stamp collision: error, file untouched.
	before, err := os.ReadFile(filepath.Join(dir, "BENCH_"+stamp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := runSnapshot(strings.NewReader(benchOutput), dir, stamp); err == nil {
		t.Fatal("explicit -stamp collision accepted")
	} else if !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("collision error %q does not name the conflict", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "BENCH_"+stamp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("explicit collision rewrote the existing snapshot")
	}

	// Auto stamp collision: bumps one second forward until free.
	got, path, err := resolveSnapshotPath(dir, "")
	if err != nil {
		t.Fatalf("resolveSnapshotPath: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("resolved path %s is not free (stat err %v)", path, err)
	}
	if filepath.Base(path) != "BENCH_"+got+".json" {
		t.Fatalf("path %s does not embed stamp %s", path, got)
	}
	// Occupy the resolved stamp and every stamp for the next few
	// seconds; the next resolution must land past the occupied range.
	occupied := make(map[string]bool)
	cur := got
	for i := 0; i < 5; i++ {
		occupied[cur] = true
		if err := os.WriteFile(filepath.Join(dir, "BENCH_"+cur+".json"), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := time.Parse(obs.BenchStampLayout, cur)
		if err != nil {
			t.Fatal(err)
		}
		cur = ts.Add(time.Second).Format(obs.BenchStampLayout)
	}
	bumped, _, err := resolveSnapshotPath(dir, "")
	if err != nil {
		t.Fatalf("resolveSnapshotPath after occupation: %v", err)
	}
	if occupied[bumped] {
		t.Fatalf("resolved stamp %s collides with an existing snapshot", bumped)
	}
	if len(bumped) != len(obs.BenchStampLayout) {
		t.Fatalf("bumped stamp %q does not match layout", bumped)
	}
}

// writeGateSnapshot writes a valid snapshot with the given stamp,
// environment, and EncodeSet/Setup timings for gate tests.
func writeGateSnapshot(t *testing.T, dir, stamp, cpu string, procs int, encodeNs, setupNs float64) {
	t.Helper()
	snap := &obs.BenchSnapshot{
		Schema: obs.BenchSchema, Stamp: stamp,
		GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
		CPU: cpu, GOMAXPROCS: procs,
		Results: []obs.BenchResult{
			{Name: "BenchmarkEncodeSet", Iterations: 100, NsPerOp: encodeNs},
			{Name: "BenchmarkEncodeSetK16", Iterations: 100, NsPerOp: encodeNs / 2},
			{Name: "BenchmarkSetup", Iterations: 100, NsPerOp: setupNs},
		},
	}
	f, err := os.Create(filepath.Join(dir, "BENCH_"+stamp+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := snap.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
}

func TestRunGate(t *testing.T) {
	const cpu = "Example CPU @ 2.00GHz"
	gate := func(dir string) (string, error) {
		var buf strings.Builder
		err := runGate(&buf, dir, 10, gateDefaultMatch)
		return buf.String(), err
	}

	t.Run("skip on fewer than two snapshots", func(t *testing.T) {
		dir := t.TempDir()
		out, err := gate(dir)
		if err != nil || !strings.Contains(out, "gate skipped") {
			t.Fatalf("empty dir: err %v, out %q", err, out)
		}
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 1000, 1000)
		out, err = gate(dir)
		if err != nil || !strings.Contains(out, "gate skipped") {
			t.Fatalf("one snapshot: err %v, out %q", err, out)
		}
	})

	t.Run("pass within threshold", func(t *testing.T) {
		dir := t.TempDir()
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 1000, 1000)
		writeGateSnapshot(t, dir, "20260807T100100Z", cpu, 1, 1050, 1000)
		out, err := gate(dir)
		if err != nil {
			t.Fatalf("5%% drift failed the gate: %v\n%s", err, out)
		}
		if !strings.Contains(out, "gate passed") {
			t.Fatalf("missing pass line in %q", out)
		}
	})

	t.Run("fail beyond threshold", func(t *testing.T) {
		dir := t.TempDir()
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 1000, 1000)
		writeGateSnapshot(t, dir, "20260807T100100Z", cpu, 1, 1250, 1000)
		out, err := gate(dir)
		if err == nil {
			t.Fatalf("25%% regression passed the gate:\n%s", out)
		}
		if !strings.Contains(out, "REGRESSION BenchmarkEncodeSet") {
			t.Fatalf("missing regression line in %q", out)
		}
	})

	t.Run("cold-path regression ignored", func(t *testing.T) {
		dir := t.TempDir()
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 1000, 1000)
		writeGateSnapshot(t, dir, "20260807T100100Z", cpu, 1, 1000, 9000)
		if out, err := gate(dir); err != nil {
			t.Fatalf("BenchmarkSetup regression tripped the gate: %v\n%s", err, out)
		}
	})

	t.Run("newest two chosen by stamp order", func(t *testing.T) {
		dir := t.TempDir()
		// Oldest has a fast time that would trip the gate if compared
		// against; the newest two are within threshold of each other.
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 500, 1000)
		writeGateSnapshot(t, dir, "20260807T100100Z", cpu, 1, 1000, 1000)
		writeGateSnapshot(t, dir, "20260807T100200Z", cpu, 1, 1040, 1000)
		if out, err := gate(dir); err != nil {
			t.Fatalf("gate compared against the wrong snapshot: %v\n%s", err, out)
		}
	})

	t.Run("skip on environment change", func(t *testing.T) {
		dir := t.TempDir()
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 1000, 1000)
		writeGateSnapshot(t, dir, "20260807T100100Z", "Other CPU", 1, 9000, 1000)
		out, err := gate(dir)
		if err != nil || !strings.Contains(out, "environment changed") {
			t.Fatalf("cpu change: err %v, out %q", err, out)
		}
		writeGateSnapshot(t, dir, "20260807T100200Z", "Other CPU", 8, 9000, 1000)
		out, err = gate(dir)
		if err != nil || !strings.Contains(out, "environment changed") {
			t.Fatalf("procs change: err %v, out %q", err, out)
		}
	})

	t.Run("same-epoch selection steps over foreign snapshots", func(t *testing.T) {
		dir := t.TempDir()
		// A machine migration left a foreign-epoch snapshot in the middle
		// of history. The gate must compare the newest snapshot against
		// the newest OLDER one from its own epoch, not skip forever.
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 1000, 1000)
		writeGateSnapshot(t, dir, "20260807T100100Z", "Other CPU", 1, 9000, 1000)
		writeGateSnapshot(t, dir, "20260807T100200Z", cpu, 1, 1040, 1000)
		out, err := gate(dir)
		if err != nil {
			t.Fatalf("gate skipped or failed despite a same-epoch baseline: %v\n%s", err, out)
		}
		if !strings.Contains(out, "gate passed") {
			t.Fatalf("missing pass line in %q", out)
		}
		// And the comparison is real: a regression against that stepped-to
		// baseline still trips the gate.
		writeGateSnapshot(t, dir, "20260807T100300Z", cpu, 1, 1300, 1000)
		out, err = gate(dir)
		if err == nil {
			t.Fatalf("30%% regression vs the same-epoch baseline passed:\n%s", out)
		}
		if !strings.Contains(out, "REGRESSION BenchmarkEncodeSet") {
			t.Fatalf("missing regression line in %q", out)
		}
	})

	t.Run("goarch change is a new epoch", func(t *testing.T) {
		dir := t.TempDir()
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 1000, 1000)
		snap := &obs.BenchSnapshot{
			Schema: obs.BenchSchema, Stamp: "20260807T100100Z",
			GoVersion: "go1.22", GOOS: "linux", GOARCH: "arm64",
			CPU: cpu, GOMAXPROCS: 1,
			Results: []obs.BenchResult{
				{Name: "BenchmarkEncodeSet", Iterations: 100, NsPerOp: 9000},
			},
		}
		f, err := os.Create(filepath.Join(dir, "BENCH_"+snap.Stamp+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		out, err := gate(dir)
		if err != nil || !strings.Contains(out, "environment changed") {
			t.Fatalf("goarch change: err %v, out %q", err, out)
		}
	})

	t.Run("dropped benchmark reported", func(t *testing.T) {
		dir := t.TempDir()
		writeGateSnapshot(t, dir, "20260807T100000Z", cpu, 1, 1000, 1000)
		// The newer snapshot lacks the gated EncodeSetK16 and the
		// ungated Setup: only the first is reported, and the gate still
		// passes on what both snapshots share.
		snap := &obs.BenchSnapshot{
			Schema: obs.BenchSchema, Stamp: "20260807T100100Z",
			GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
			CPU: cpu, GOMAXPROCS: 1,
			Results: []obs.BenchResult{
				{Name: "BenchmarkEncodeSet", Iterations: 100, NsPerOp: 1000},
			},
		}
		f, err := os.Create(filepath.Join(dir, "BENCH_"+snap.Stamp+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		out, err := gate(dir)
		if err != nil || !strings.Contains(out, "gate passed") {
			t.Fatalf("err %v, out %q", err, out)
		}
		if !strings.Contains(out, "benchjson: dropped BenchmarkEncodeSetK16\n") {
			t.Fatalf("missing dropped line in %q", out)
		}
		if strings.Contains(out, "dropped BenchmarkEncodeSet\n") || strings.Contains(out, "dropped BenchmarkSetup") {
			t.Fatalf("a kept or ungated benchmark reported as dropped in %q", out)
		}
	})

	t.Run("bad match regexp", func(t *testing.T) {
		var buf strings.Builder
		if err := runGate(&buf, t.TempDir(), 10, "("); err == nil {
			t.Fatal("invalid -gate-match accepted")
		}
	})
}

func TestRunCheckJSON(t *testing.T) {
	ok := `{"t":1,"type":"encode_report"}` + "\n" + `{"counters":{}}` + "\n"
	if err := runCheckJSON(strings.NewReader(ok)); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
	if err := runCheckJSON(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if err := runCheckJSON(strings.NewReader(`{"a":1} not-json`)); err == nil {
		t.Error("trailing garbage accepted")
	}
}
