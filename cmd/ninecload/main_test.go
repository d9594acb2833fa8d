package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestPercentiles pins the nearest-rank quantile math.
func TestPercentiles(t *testing.T) {
	durs := make([]time.Duration, 100)
	for i := range durs {
		durs[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms sorted
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	} {
		if got := percentile(durs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := percentile(durs[:1], 0.5); got != time.Millisecond {
		t.Errorf("single-sample percentile = %v", got)
	}
}

// stubDaemon mimics the ninecd surface the harness touches: /readyz,
// /metrics, and the two serving routes, whose behavior the test
// injects.
func stubDaemon(t *testing.T, serve http.HandlerFunc, panics int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		fmt.Fprintf(w, "# TYPE ninecd_encode_panics_total counter\nninecd_encode_panics_total %d\nninecd_http_encode_status_5xx_total 0\n", panics)
	})
	mux.HandleFunc("/encode", serve)
	mux.HandleFunc("/decode", serve)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadRecoversFromFlakyDaemon: a daemon failing every third request
// with a retryable 503 still yields a clean SLO verdict — the client's
// retries absorb the fault plane — and the report records that work.
func TestLoadRecoversFromFlakyDaemon(t *testing.T) {
	var calls atomic.Int64
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if calls.Add(1)%3 == 0 {
			w.Header().Set("Retry-After", "0")
			w.Header().Set("X-Error-Class", "saturated")
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok")
	}, 0)

	var out bytes.Buffer
	code := realMain([]string{
		"-addr", ts.URL, "-n", "60", "-c", "4", "-seed", "7",
		"-retries", "5", "-budget", "5s", "-attempt-timeout", "2s",
		"-json",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, report: %s", code, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	if rep.Succeeded != 60 || rep.Failed != 0 {
		t.Fatalf("succeeded=%d failed=%d, want 60/0", rep.Succeeded, rep.Failed)
	}
	if rep.Retries == 0 {
		t.Fatal("flaky daemon produced zero client retries")
	}
	if rep.Unclassified != 0 {
		t.Fatalf("%d unclassified errors", rep.Unclassified)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestHardDownDaemonYieldsViolations: terminal 500s cannot be retried
// away; the harness must exit 1 with a success-rate violation and pick
// up the daemon's panic counter as a second violation.
func TestHardDownDaemonYieldsViolations(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}, 3)

	var out bytes.Buffer
	code := realMain([]string{"-addr", ts.URL, "-n", "10", "-c", "2", "-json"}, &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1; report: %s", code, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Succeeded != 0 {
		t.Fatalf("succeeded=%d against a hard-down daemon", rep.Succeeded)
	}
	if rep.ByClass["http_500"] != 10 {
		t.Fatalf("errors by class = %v, want http_500=10", rep.ByClass)
	}
	if rep.DaemonPanics != 3 {
		t.Fatalf("daemon panics = %d, want 3 from the stub", rep.DaemonPanics)
	}
	joined := strings.Join(rep.Violations, "; ")
	if !strings.Contains(joined, "success rate") || !strings.Contains(joined, "panics") {
		t.Fatalf("violations = %v", rep.Violations)
	}
}

// TestChaosPathRecovers: end to end through the seeded chaos proxy —
// resets and slow-loris on one in five connections — the retrying
// client still lands every request and classifies every transient.
func TestChaosPathRecovers(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "ok")
	}, 0)

	var out bytes.Buffer
	code := realMain([]string{
		"-addr", ts.URL, "-n", "40", "-c", "4", "-seed", "11",
		"-chaos", "-chaos-reset", "0.2", "-chaos-slowloris", "0.2",
		"-chaos-latency", "1ms",
		"-retries", "6", "-budget", "10s",
		"-json",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d, report: %s", code, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Proxy == nil || rep.Proxy.Conns == 0 {
		t.Fatal("chaos run reported no proxied connections")
	}
	if rep.Unclassified != 0 {
		t.Fatalf("%d unclassified errors under chaos", rep.Unclassified)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestSetupFailureExitsTwo: an unreachable daemon is a setup error
// (exit 2), not an SLO violation.
func TestSetupFailureExitsTwo(t *testing.T) {
	var out bytes.Buffer
	code := realMain([]string{"-addr", "127.0.0.1:1", "-n", "5"}, &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2 for unreachable daemon", code)
	}
	if code := realMain([]string{"-n", "0"}, &out); code != 2 {
		t.Fatalf("exit %d, want 2 for bad flags", code)
	}
}

// TestTextReport: the human report names its sections and the SLO
// verdict line.
func TestTextReport(t *testing.T) {
	ts := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "ok")
	}, 0)
	var out bytes.Buffer
	if code := realMain([]string{"-addr", ts.URL, "-n", "8", "-c", "2"}, &out); code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	for _, want := range []string{"ninecload:", "latency", "goodput", "SLO: ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}
