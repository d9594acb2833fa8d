package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestRequestIDEcho pins the trace-identity contract: every response
// carries X-Request-ID — a printable inbound value verbatim, a
// generated ID otherwise (including for hostile header bytes).
func TestRequestIDEcho(t *testing.T) {
	ts, _ := newTestServer(t, config{})
	client := ts.Client()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-id-42")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-id-42" {
		t.Errorf("inbound ID not echoed: %q", got)
	}

	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-ID")
	if len(generated) != 16 {
		t.Errorf("generated ID = %q, want 16 hex chars", generated)
	}

	// An over-long (but transmissible) ID is replaced by a generated one.
	long := strings.Repeat("x", 200)
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", long)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == long || len(got) != 16 {
		t.Errorf("over-long ID handled as %q, want a generated replacement", got)
	}

	// Bytes Go's client refuses to even transmit are covered at the
	// sanitizer: anything non-printable or oversized is rejected.
	for _, hostile := range []string{"", "has\x7fdel", "tab\there", "nl\nhere", "ünïcode", long} {
		if got := sanitizeRequestID(hostile); got != "" {
			t.Errorf("sanitizeRequestID(%q) = %q, want rejection", hostile, got)
		}
	}
	if got := sanitizeRequestID("ok-ID_42.z"); got != "ok-ID_42.z" {
		t.Errorf("sanitizeRequestID rejected a printable ID: %q", got)
	}
}

// TestDebugTracesNestedSpans drives a real encode with telemetry
// enabled and asserts /debug/traces shows the codec span nested under
// the request root span, all sharing the request's trace ID — and that
// no payload bytes appear anywhere in the export.
func TestDebugTracesNestedSpans(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()
	s := newServer(config{}, reg)

	payload := "# payload-marker-must-not-leak\n" + sampleText(4, 16, 11)
	req := httptest.NewRequest(http.MethodPost, "/encode?k=8", strings.NewReader(payload))
	req.Header.Set("X-Request-ID", "trace-under-test-1")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("encode: %d %s", rec.Code, rec.Body.String())
	}

	drec := httptest.NewRecorder()
	s.ServeHTTP(drec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if drec.Code != http.StatusOK {
		t.Fatalf("debug/traces: %d", drec.Code)
	}
	body := drec.Body.String()
	if strings.Contains(body, "payload-marker") {
		t.Fatal("request payload leaked into /debug/traces")
	}

	var out struct {
		Total  int64             `json:"total"`
		Recent []obs.TraceRecord `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("traces not JSON: %v", err)
	}
	var encodeTrace *obs.TraceRecord
	for i := range out.Recent {
		if out.Recent[i].TraceID == "trace-under-test-1" {
			encodeTrace = &out.Recent[i]
			break
		}
	}
	if encodeTrace == nil {
		t.Fatalf("encode trace not retained: %+v", out.Recent)
	}
	if encodeTrace.Route != "encode" || encodeTrace.Status != http.StatusOK {
		t.Errorf("trace = %+v", encodeTrace)
	}
	var root, codec *obs.SpanRecord
	for i := range encodeTrace.Spans {
		switch encodeTrace.Spans[i].Name {
		case "ninecd.http.encode":
			root = &encodeTrace.Spans[i]
		case "core.encode_set":
			codec = &encodeTrace.Spans[i]
		}
	}
	if root == nil || codec == nil {
		t.Fatalf("spans missing root or codec stage: %+v", encodeTrace.Spans)
	}
	if codec.ParentID != root.SpanID {
		t.Errorf("codec span parent %d != root span %d — not nested", codec.ParentID, root.SpanID)
	}
}

// TestReadyzDegradesOnBurn: a fresh server is ready; sustained errors
// burn the availability budget and flip /readyz to 503 while /healthz
// stays 200 — readiness degrades before liveness fails.
func TestReadyzDegradesOnBurn(t *testing.T) {
	s := newServer(config{SLOWindow: 10 * time.Second}, obs.NewRegistry())

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("fresh /readyz = %d, want 200: %s", rec.Code, rec.Body.String())
	}

	// Burn the 0.1% error budget hard: 50% errors.
	for i := 0; i < 100; i++ {
		s.slo.Observe(time.Millisecond, i%2 == 0)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("burning /readyz = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "error_burn") {
		t.Errorf("degraded body lacks burn rates: %q", rec.Body.String())
	}

	h := httptest.NewRecorder()
	s.ServeHTTP(h, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if h.Code != http.StatusOK {
		t.Fatalf("/healthz = %d during SLO burn, want 200 (liveness is not readiness)", h.Code)
	}

	// The exposition reflects the degradation.
	m := httptest.NewRecorder()
	s.ServeHTTP(m, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(m.Body.String(), "ninecd_slo_ready 0") {
		t.Error("/metrics does not export ninecd_slo_ready 0 while degraded")
	}
}

// failingWriter fails after the response is committed, to model a
// client vanishing mid-scrape.
type failingWriter struct {
	httptest.ResponseRecorder
}

func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestMetricsContentTypeAndWriteErrors is the regression test for
// the /metrics handler: the response declares the exposition format
// and parses strictly, a successful scrape does NOT count a write
// error, and a write that actually fails mid-stream counts exactly one.
func TestMetricsContentTypeAndWriteErrors(t *testing.T) {
	s := newServer(config{}, obs.NewRegistry())

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	if _, err := obs.ParsePrometheus(rec.Body); err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if got := s.reg.Counter("ninecd.metrics.write_errors").Value(); got != 0 {
		t.Fatalf("write_errors = %d after a successful scrape, want 0", got)
	}

	fw := &failingWriter{ResponseRecorder: *httptest.NewRecorder()}
	s.handleMetricsProm(fw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if got := s.reg.Counter("ninecd.metrics.write_errors").Value(); got != 1 {
		t.Fatalf("write_errors = %d after a failed write, want 1", got)
	}
}

// TestAccessLogLine: with -access-log wired, each request appends one
// NDJSON line carrying the trace ID, route, status, and sizes — and no
// payload bytes.
func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	s := newServer(config{Access: obs.NewAccessLog(&buf)}, obs.NewRegistry())

	payload := "# log-marker-must-not-leak\n0101\n"
	req := httptest.NewRequest(http.MethodPost, "/encode?k=4", strings.NewReader(payload))
	req.Header.Set("X-Request-ID", "access-log-test")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("encode: %d %s", rec.Code, rec.Body.String())
	}

	line := strings.TrimSpace(buf.String())
	var e obs.AccessEvent
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("access log line not JSON: %v (%q)", err, line)
	}
	if e.Trace != "access-log-test" || e.Route != "encode" || e.Status != http.StatusOK {
		t.Errorf("access event = %+v", e)
	}
	if e.BytesIn == 0 || e.BytesOut == 0 {
		t.Errorf("sizes not recorded: %+v", e)
	}
	if strings.Contains(line, "log-marker") {
		t.Fatal("payload leaked into the access log")
	}
}

// TestStatusClassCounters: the per-route status-class counters land in
// the right class.
func TestStatusClassCounters(t *testing.T) {
	ts, s := newTestServer(t, config{})
	post(t, ts.URL+"/encode?k=4", []byte("0101\n"))         // 200
	post(t, ts.URL+"/encode", []byte("not valid @ text\n")) // 400

	if got := s.reg.Counter("ninecd.http.encode.status.2xx").Value(); got != 1 {
		t.Errorf("2xx = %d, want 1", got)
	}
	if got := s.reg.Counter("ninecd.http.encode.status.4xx").Value(); got != 1 {
		t.Errorf("4xx = %d, want 1", got)
	}
	if got := s.reg.Counter("ninecd.http.encode.status.5xx").Value(); got != 0 {
		t.Errorf("5xx = %d, want 0", got)
	}
	if got := s.reg.Histogram("span.ninecd.http.encode").Count(); got != 2 {
		t.Errorf("latency observations = %d, want 2", got)
	}
}

// TestQueueWaitRecorded: a request that had to wait for a worker slot
// reports a non-zero queue wait in its trace record.
func TestQueueWaitRecorded(t *testing.T) {
	s := newServer(config{Workers: 1, QueueWait: 5 * time.Second}, obs.NewRegistry())
	s.sem <- struct{}{} // hold the only slot briefly
	go func() {
		time.Sleep(30 * time.Millisecond)
		<-s.sem
	}()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/encode?k=4", strings.NewReader("0101\n")))
	if rec.Code != http.StatusOK {
		t.Fatalf("encode: %d %s", rec.Code, rec.Body.String())
	}
	_, slowest := s.traces.Traces()
	if len(slowest) == 0 {
		t.Fatal("no trace retained")
	}
	if slowest[0].QueueWaitNs < int64(20*time.Millisecond) {
		t.Errorf("queue wait = %dns, want >= 20ms of recorded waiting", slowest[0].QueueWaitNs)
	}
}

var _ io.Writer = (*failingWriter)(nil)
