package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/tcube"
)

const cubes = `# demo
0000000011111111
01X011011XXXXX10
XXXXXXXXXXXXXXXX
`

// captureStdout runs f with os.Stdout redirected and returns what was
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := f()
	w.Close()
	out := make([]byte, 1<<20)
	n, _ := r.Read(out)
	r.Close()
	return string(out[:n]), runErr
}

func writeCubes(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "cubes.txt")
	if err := os.WriteFile(path, []byte(cubes), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunStat(t *testing.T) {
	path := writeCubes(t)
	out, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Stat: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 patterns x 16 bits") {
		t.Fatalf("stat output: %q", out)
	}
}

func TestRunSweep(t *testing.T) {
	path := writeCubes(t)
	out, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Sweep: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CR%") || strings.Count(out, "\n") < 9 {
		t.Fatalf("sweep output: %q", out)
	}
}

func TestRunCompressVerifyAndContainer(t *testing.T) {
	path := writeCubes(t)
	cont := filepath.Join(t.TempDir(), "out.9c")
	out, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Verify: true, Out: cont})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "verify: decode preserves every specified bit") {
		t.Fatalf("verify output: %q", out)
	}
	if !strings.Contains(out, "TAT at p=8") {
		t.Fatalf("TAT output missing: %q", out)
	}
	// Decompress the container back.
	dec, err := captureStdout(t, func() error { return runDecompress(cont, decOpts{Strict: true}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dec, "0000000011111111") {
		t.Fatalf("decompressed output: %q", dec)
	}
	// Leftover X must still be X in the decompressed text.
	if !strings.Contains(dec, "X") {
		t.Fatalf("leftover don't-cares lost: %q", dec)
	}
	raw, err := os.ReadFile(cont)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(container.Magic4)) {
		t.Fatalf("-o wrote %q..., want an N9C4 container", raw[:4])
	}

	// A v3 file of the same set, as earlier ninec runs wrote, still
	// decompresses to the same text.
	back, err := container.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := container.WriteVersion(&v3, back, container.Magic); err != nil {
		t.Fatal(err)
	}
	v3Path := filepath.Join(t.TempDir(), "v3.9c")
	if err := os.WriteFile(v3Path, v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	dec3, err := captureStdout(t, func() error { return runDecompress(v3Path, decOpts{Strict: true}) })
	if err != nil {
		t.Fatal(err)
	}
	if dec3 != dec {
		t.Fatalf("v3 decompressed to %q, v4 to %q", dec3, dec)
	}
}

func TestRunFrequencyDirected(t *testing.T) {
	path := writeCubes(t)
	out, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, FD: true, Verify: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "codewords:") {
		t.Fatalf("output: %q", out)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeCubes(t)
	if err := run(path, runOpts{K: 7, P: 8}); err == nil {
		t.Fatal("odd K accepted")
	}
	if err := run("/nonexistent/cubes.txt", runOpts{K: 8, P: 8}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := runDecompress(path, decOpts{Strict: true}); err == nil {
		t.Fatal("non-container accepted by -d")
	}
}

func TestRunMultiChain(t *testing.T) {
	path := writeCubes(t)
	out, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Chains: 4})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "multi-scan: 4 chains") {
		t.Fatalf("multi-scan output: %q", out)
	}
}

func TestRunParallelWorkersIdentical(t *testing.T) {
	path := writeCubes(t)
	serial, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Workers: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Workers: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Fatalf("worker count changed the report:\nserial: %q\nparallel: %q", serial, parallel)
	}
}

func TestRunReadsSTIL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cubes.stil")
	src := `STIL 1.0;
ScanStructures { ScanChain "c" { ScanLength 16; } }
Pattern "p" { Call "load_unload" { "si" = 0000000011111111; } }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Stat: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 patterns x 16 bits") {
		t.Fatalf("stil stat: %q", out)
	}
}

func TestRunReorder(t *testing.T) {
	path := writeCubes(t)
	out, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Verify: true, Reorder: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reordered 16 scan cells") {
		t.Fatalf("reorder output: %q", out)
	}
}

// TestRunJSONReport asserts -json emits exactly one machine-readable
// encode report reusing the obs event shape.
func TestRunJSONReport(t *testing.T) {
	path := writeCubes(t)
	out, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Verify: true, JSON: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	var ev obs.Event
	if err := json.Unmarshal([]byte(out), &ev); err != nil {
		t.Fatalf("stdout is not one JSON object: %v\n%q", err, out)
	}
	if ev.Type != "encode_report" {
		t.Fatalf("event type = %q", ev.Type)
	}
	f := ev.Fields
	if f["k"] != float64(8) || f["patterns"] != float64(3) || f["width"] != float64(16) {
		t.Fatalf("geometry fields: %v", f)
	}
	for _, key := range []string{"cr_percent", "lx_percent", "compressed_bits", "orig_bits", "codewords", "tat"} {
		if _, ok := f[key]; !ok {
			t.Fatalf("missing field %q in %v", key, f)
		}
	}
	counts, ok := f["counts"].(map[string]any)
	if !ok || len(counts) != 9 {
		t.Fatalf("counts = %v", f["counts"])
	}
	if f["verified"] != true {
		t.Fatalf("verified = %v", f["verified"])
	}
	tat, ok := f["tat"].(map[string]any)
	if !ok || tat["p"] != float64(8) {
		t.Fatalf("tat = %v", f["tat"])
	}
}

func TestRunJSONRejectsStatSweep(t *testing.T) {
	path := writeCubes(t)
	if err := run(path, runOpts{K: 8, P: 8, JSON: true, Stat: true}); err == nil {
		t.Fatal("-json -stat accepted")
	}
	if err := run(path, runOpts{K: 8, P: 8, JSON: true, Sweep: true}); err == nil {
		t.Fatal("-json -sweep accepted")
	}
}

// TestDecompressKeepsSetName asserts the round-tripped set is labeled
// with the original set name from the container header, not the .9c
// container path.
func TestDecompressKeepsSetName(t *testing.T) {
	path := writeCubes(t)
	cont := filepath.Join(t.TempDir(), "out.9c")
	if _, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Out: cont})
	}); err != nil {
		t.Fatal(err)
	}
	// The banner naming the set goes to stderr.
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	_, runErr := captureStdout(t, func() error { return runDecompress(cont, decOpts{Strict: true}) })
	w.Close()
	os.Stderr = oldErr
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	banner := string(buf[:n])
	if !strings.Contains(banner, path+":") {
		t.Fatalf("decompress banner %q does not name the source set %q", banner, path)
	}
	if strings.Contains(banner, "out.9c") {
		t.Fatalf("decompress banner %q still names the container path", banner)
	}
}

// TestRunTimeout asserts an already-expired -timeout aborts the encode
// with a deadline error, and a generous one changes nothing.
func TestRunTimeout(t *testing.T) {
	path := writeCubes(t)
	if _, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Timeout: time.Nanosecond})
	}); err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
	if _, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Timeout: time.Minute})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressLimits asserts -max-patterns / -max-bits reject a
// container exceeding them with a limit error, and admit it otherwise.
func TestDecompressLimits(t *testing.T) {
	path := writeCubes(t)
	cont := filepath.Join(t.TempDir(), "out.9c")
	if _, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Out: cont})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return runDecompress(cont, decOpts{Strict: true, MaxPatterns: 2})
	}); err == nil || !errors.Is(err, robust.ErrLimitExceeded) {
		t.Fatalf("max-patterns: err %v, want ErrLimitExceeded", err)
	}
	if _, err := captureStdout(t, func() error {
		return runDecompress(cont, decOpts{Strict: true, MaxBits: 4})
	}); err == nil || !errors.Is(err, robust.ErrLimitExceeded) {
		t.Fatalf("max-bits: err %v, want ErrLimitExceeded", err)
	}
	if _, err := captureStdout(t, func() error {
		return runDecompress(cont, decOpts{Strict: true, MaxPatterns: 100, MaxBits: 1 << 20})
	}); err != nil {
		t.Fatalf("healthy container rejected under generous limits: %v", err)
	}
}

// TestDecompressLenientSalvage corrupts the tail of a container's
// payload and asserts -strict rejects it while -strict=false salvages
// the prefix: of a v3 file, as earlier ninec runs wrote, up to the
// first undecodable block; of the v4 file -o writes, every chunk before
// the bad one.
func TestDecompressLenientSalvage(t *testing.T) {
	dir := t.TempDir()
	salvage := func(cont, lead string) {
		t.Helper()
		if _, err := captureStdout(t, func() error {
			return runDecompress(cont, decOpts{Strict: true})
		}); err == nil || !errors.Is(err, robust.ErrChecksum) {
			t.Fatalf("%s strict: err %v, want ErrChecksum", cont, err)
		}
		out, err := captureStdout(t, func() error {
			return runDecompress(cont, decOpts{Strict: false})
		})
		if err != nil {
			t.Fatalf("%s lenient decode failed outright: %v", cont, err)
		}
		// The leading pattern encodes ahead of the corrupted tail and
		// must survive the salvage.
		if !strings.Contains(out, lead) {
			t.Fatalf("%s salvaged output lost the leading pattern: %q", cont, out)
		}
	}

	// v3: flip a care bit in the value plane near the end of the
	// payload (mask plane bit clear), leaving a well-formed ternary
	// stream whose tail no longer decodes as valid codewords.
	set, err := tcube.Read("cubes", strings.NewReader(cubes))
	if err != nil {
		t.Fatal(err)
	}
	cdc, err := core.New(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := container.WriteVersion(&buf, r, container.Magic); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	nameOff := 28 + 9*9
	nameLen := int(raw[nameOff]) | int(raw[nameOff+1])<<8
	headerEnd := nameOff + 2 + nameLen + 4
	nbytes := (len(raw) - headerEnd - 4) / 2
	flipped := false
	for i := nbytes*8 - 1; i >= 0; i-- {
		if raw[headerEnd+nbytes+i/8]&(1<<(i%8)) == 0 {
			raw[headerEnd+i/8] ^= 1 << (i % 8)
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no care bit found in payload")
	}
	v3 := filepath.Join(dir, "v3.9c")
	if err := os.WriteFile(v3, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	salvage(v3, "0000000011111111")

	// v4: a set whose stream spans several chunks, with the CRC of the
	// last chunk (just before the 4-byte terminator and 20-byte
	// trailer) damaged.
	lead := strings.Repeat("0000000011111111", 16)
	rng := rand.New(rand.NewSource(1))
	var text strings.Builder
	text.WriteString(lead + "\n")
	for i := 0; i < 200; i++ {
		for j := 0; j < len(lead); j++ {
			text.WriteByte("01"[rng.Intn(2)])
		}
		text.WriteByte('\n')
	}
	in := filepath.Join(dir, "big.txt")
	if err := os.WriteFile(in, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	v4 := filepath.Join(dir, "v4.9c")
	if _, err := captureStdout(t, func() error {
		return run(in, runOpts{K: 8, P: 8, Out: v4})
	}); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(v4)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-25] ^= 1
	if err := os.WriteFile(v4, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	salvage(v4, lead)
}

// TestRealMainExitCodes drives the whole CLI through realMain and pins
// the exit-code contract: 0 on success, 1 on an ordinary error, 2 on
// usage mistakes — and never an uncaught panic.
func TestRealMainExitCodes(t *testing.T) {
	path := writeCubes(t)
	if _, code := quietRealMain(t, []string{"-stat", path}); code != 0 {
		t.Fatalf("healthy run exited %d", code)
	}
	if _, code := quietRealMain(t, []string{"/nonexistent/cubes.txt"}); code != 1 {
		t.Fatalf("missing input exited %d, want 1", code)
	}
	if _, code := quietRealMain(t, []string{}); code != 2 {
		t.Fatalf("no args exited %d, want 2", code)
	}
	if _, code := quietRealMain(t, []string{"-no-such-flag", path}); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

// quietRealMain runs realMain with stderr captured.
func quietRealMain(t *testing.T, args []string) (string, int) {
	t.Helper()
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	var code int
	_, _ = captureStdout(t, func() error {
		code = realMain(args)
		return nil
	})
	w.Close()
	os.Stderr = oldErr
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	r.Close()
	return string(buf[:n]), code
}

// TestPanicMessageClassified asserts a library panic that escapes to
// main is rendered as a single classified line, not a goroutine dump:
// classified errors keep their taxonomy class, everything else is
// tagged internal.
func TestPanicMessageClassified(t *testing.T) {
	msg := panicMessage(fmt.Errorf("bad container: %w", robust.ErrCorrupt))
	if !strings.Contains(msg, "ninec: fatal (corrupt):") {
		t.Fatalf("classified panic message = %q", msg)
	}
	msg = panicMessage("index out of range")
	if !strings.Contains(msg, "ninec: fatal (internal): index out of range") {
		t.Fatalf("unclassified panic message = %q", msg)
	}
	msg = panicMessage(fmt.Errorf("short read: %w", robust.ErrTruncated))
	if !strings.Contains(msg, "(truncated)") {
		t.Fatalf("truncated panic message = %q", msg)
	}
}

// TestTelemetrySmoke drives the full CLI telemetry path: metrics to a
// file, trace to a file, and a compress run — then parses the metrics
// file strictly as Prometheus text and every trace line as JSON. This
// backs the `make telemetry-smoke` gate.
func TestTelemetrySmoke(t *testing.T) {
	path := writeCubes(t)
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.ndjson")
	stop, err := obs.CLIConfig{Metrics: metrics, Trace: trace}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := captureStdout(t, func() error {
		return run(path, runOpts{K: 8, P: 8, Verify: true, Workers: 2})
	}); err != nil {
		stop()
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := obs.ParsePrometheus(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("metrics exposition: %v\n%s", err, raw)
	}
	if scrape.Samples["core_encode_calls_total"] == 0 {
		t.Fatalf("no encode calls recorded: %v", scrape.Samples)
	}
	if scrape.Samples["core_encode_blocks_total"] == 0 || scrape.Samples["core_case_n9_total"] == 0 {
		t.Fatalf("per-case/block counters missing: %v", scrape.Samples)
	}
	traw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(traw)), "\n")
	if len(lines) == 0 {
		t.Fatal("no trace events")
	}
	sawWorker := false
	for _, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Name == "core.encode_worker" {
			sawWorker = true
		}
	}
	if !sawWorker {
		t.Fatal("no per-worker span in trace")
	}
}
