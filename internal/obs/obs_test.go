package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-2)
	if got := r.Gauge("g").Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 1024, -5} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("hist count = %d, want 6", h.Count())
	}
	if h.Sum() != 0+1+2+3+1024 {
		t.Fatalf("hist sum = %d, want 1030 (the -5 clamps to 0)", h.Sum())
	}
	// 0 and -5 in bucket 0; 1 in bucket 1; 2,3 in bucket 2; 1024 in bucket 11.
	want := map[int]int64{0: 2, 1: 1, 2: 2, 11: 1}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != want[i] {
			t.Fatalf("bucket pow %d = %d, want %d", i, got, want[i])
		}
	}
}

// TestNilSafety drives the full API through nil receivers; every call
// must be a silent no-op — this is the disabled-path contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Gauge("x").Add(1)
	r.Histogram("x").Observe(1)
	r.SetSink(NewJSONSink(os.Stderr))
	r.Emit("t", "n", nil)
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 || r.Histogram("x").Count() != 0 {
		t.Fatal("nil metric returned nonzero value")
	}
	sp := r.Span("s")
	if sp != nil {
		t.Fatal("nil registry produced a non-nil span")
	}
	sp.Set("k", 1).Set("k2", 2)
	if sp.Child("c") != nil {
		t.Fatal("nil span produced a non-nil child")
	}
	if sp.Elapsed() != 0 {
		t.Fatal("nil span has elapsed time")
	}
	sp.End()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition: %q, %v", buf.String(), err)
	}
}

func TestSpansNestAndEmit(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var events []Event
	r.SetSink(FuncSink(func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, e)
	}))
	root := r.Span("outer").Set("k", 16)
	child := root.Child("inner")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Name != "inner" || events[1].Name != "outer" {
		t.Fatalf("event order: %q, %q", events[0].Name, events[1].Name)
	}
	if events[0].ParentID != events[1].SpanID {
		t.Fatalf("child parent %d != root span %d", events[0].ParentID, events[1].SpanID)
	}
	if events[0].DurNs < int64(time.Millisecond) {
		t.Fatalf("child duration %d < 1ms", events[0].DurNs)
	}
	if events[1].Fields["k"] != 16 {
		t.Fatalf("root fields = %v", events[1].Fields)
	}
	if r.Histogram("span.inner").Count() != 1 || r.Histogram("span.outer").Count() != 1 {
		t.Fatal("span durations not recorded in histograms")
	}
}

func TestJSONSinkEmitsNDJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONSink(&buf)
	s.Emit(Event{Type: "span", Name: "a", TimeUnixNano: 1})
	s.Emit(Event{Type: "progress", Name: "b", TimeUnixNano: 2, Fields: map[string]any{"n": 3}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
}

func TestEnableDisable(t *testing.T) {
	if Active() != nil {
		t.Fatal("telemetry active at test start")
	}
	r := NewRegistry()
	Enable(r)
	if Active() != r {
		t.Fatal("Active did not return the enabled registry")
	}
	Active().Counter("seen").Inc()
	Disable()
	if Active() != nil {
		t.Fatal("Active non-nil after Disable")
	}
	// The disabled path must not record anything.
	Active().Counter("seen").Inc()
	if r.Counter("seen").Value() != 1 {
		t.Fatalf("counter = %d after disable, want 1", r.Counter("seen").Value())
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	r.SetSink(NewJSONSink(discard{}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(int64(i))
				sp := r.Span("work")
				sp.Child("sub").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8*500 {
		t.Fatalf("counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("span.work").Count(); got != 8*500 {
		t.Fatalf("span histogram = %d, want %d", got, 8*500)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestCLIConfigStartDisabled(t *testing.T) {
	stop, err := CLIConfig{}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if Active() != nil {
		t.Fatal("empty config enabled telemetry")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestCLIConfigStartFull(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.prom")
	trace := filepath.Join(dir, "trace.ndjson")
	stop, err := CLIConfig{Metrics: metrics, Trace: trace, PprofAddr: "127.0.0.1:0"}.Start()
	if err != nil {
		t.Fatal(err)
	}
	reg := Active()
	if reg == nil {
		t.Fatal("telemetry not enabled")
	}
	reg.Counter("demo").Add(42)
	sp := reg.Span("demo.stage")
	sp.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if Active() != nil {
		t.Fatal("telemetry still active after stop")
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := ParsePrometheus(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("metrics file: %v\n%s", err, raw)
	}
	if scrape.Samples["demo_total"] != 42 {
		t.Fatalf("metrics samples = %v", scrape.Samples)
	}
	if h := scrape.Hists["span_demo_stage"]; h == nil || h.Count != 1 {
		t.Fatalf("span histogram = %+v, want one observation", h)
	}
	traw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	if err := json.Unmarshal([]byte(strings.TrimSpace(string(traw))), &ev); err != nil {
		t.Fatalf("trace file: %v\n%s", err, traw)
	}
	if ev.Name != "demo.stage" || ev.Type != "span" {
		t.Fatalf("trace event = %+v", ev)
	}
}

func TestCLIConfigPprofServes(t *testing.T) {
	// Grab a free port first so the test can dial it back.
	stop, err := CLIConfig{PprofAddr: "127.0.0.1:0"}.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// The listener address isn't surfaced; this test only asserts
	// Start succeeds with pprof alone and the default mux has the
	// profile routes registered.
	req, _ := http.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "profile") {
		t.Fatalf("pprof index body: %q", rec.Body.String())
	}
}
