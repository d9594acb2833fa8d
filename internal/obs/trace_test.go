package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNewTraceIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q has length %d, want 16", id, len(id))
		}
		for j := 0; j < len(id); j++ {
			c := id[j]
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("trace ID %q is not lowercase hex", id)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

func TestContextTraceIDRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := TraceIDFromContext(ctx); got != "" {
		t.Fatalf("empty context carries trace ID %q", got)
	}
	ctx = ContextWithTraceID(ctx, "abc123")
	if got := TraceIDFromContext(ctx); got != "abc123" {
		t.Fatalf("round trip = %q", got)
	}
	// Empty IDs are not stored.
	if ctx2 := ContextWithTraceID(context.Background(), ""); TraceIDFromContext(ctx2) != "" {
		t.Fatal("empty trace ID was stored")
	}
	if got := TraceIDFromContext(nil); got != "" { //nolint:staticcheck // nil-safety contract
		t.Fatalf("nil context returned %q", got)
	}
}

// TestSpanCtxNesting is the tracing contract end to end: a root span
// carries the context's trace ID, children started via SpanCtx inherit
// trace and collector, and Records() returns the finished children
// with correct parentage — names, IDs, and timings only.
func TestSpanCtxNesting(t *testing.T) {
	r := NewRegistry()
	Enable(r)
	defer Disable()

	ctx := ContextWithTraceID(context.Background(), "trace-1")
	root := SpanCtx(ctx, "http.request").Collect()
	if root.TraceID() != "trace-1" {
		t.Fatalf("root trace = %q, want trace-1", root.TraceID())
	}
	ctx = ContextWithSpan(ctx, root)

	child := SpanCtx(ctx, "core.encode_set")
	if child.TraceID() != "trace-1" {
		t.Fatalf("child trace = %q, want inherited trace-1", child.TraceID())
	}
	grand := SpanCtx(ContextWithSpan(ctx, child), "core.encode_worker")
	grand.Set("secret", "payload-bytes") // must NOT appear in records
	grand.End()
	child.End()
	root.End()

	recs := root.Records()
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3 (root + child + grandchild)", len(recs))
	}
	byName := make(map[string]SpanRecord, len(recs))
	for _, rec := range recs {
		byName[rec.Name] = rec
	}
	if byName["core.encode_set"].ParentID != byName["http.request"].SpanID {
		t.Error("child does not point at root")
	}
	if byName["core.encode_worker"].ParentID != byName["core.encode_set"].SpanID {
		t.Error("grandchild does not point at child")
	}

	// Redaction: serialized records carry no span fields.
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("payload-bytes")) || bytes.Contains(data, []byte("secret")) {
		t.Fatalf("span fields leaked into trace records: %s", data)
	}

	// Records drains: a second call is empty.
	if again := root.Records(); len(again) != 0 {
		t.Fatalf("Records did not drain: %d left", len(again))
	}
}

func TestSpanCtxDisabledReturnsNil(t *testing.T) {
	Disable()
	ctx := ContextWithTraceID(context.Background(), "t")
	if sp := SpanCtx(ctx, "x"); sp != nil {
		t.Fatal("SpanCtx returned a span while telemetry is disabled")
	}
}

// TestNewAPINilSafety drives every API added for the telemetry stack
// through nil receivers; all must be silent no-ops, because this is
// what the disabled path executes.
func TestNewAPINilSafety(t *testing.T) {
	var r *Registry
	r.Describe("x", "help")
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var sp *Span
	if sp.WithTraceID("t") != nil {
		t.Fatal("nil span WithTraceID returned non-nil")
	}
	if sp.TraceID() != "" {
		t.Fatal("nil span has a trace ID")
	}
	if sp.Collect() != nil {
		t.Fatal("nil span Collect returned non-nil")
	}
	if sp.Records() != nil {
		t.Fatal("nil span Records returned non-nil")
	}

	var tb *TraceBuffer
	tb.Record(TraceRecord{})
	if rec, slow := tb.Traces(); rec != nil || slow != nil {
		t.Fatal("nil trace buffer returned traces")
	}
	if tb.Total() != 0 {
		t.Fatal("nil trace buffer has a total")
	}

	var al *AccessLog
	al.Log(AccessEvent{Route: "x"})

	var slo *SLOTracker
	slo.Observe(time.Second, true)
	if st := slo.Status(); !st.Ready {
		t.Fatal("nil SLO tracker not ready")
	}
	slo.Publish(nil)
	slo.Publish(NewRegistry())

	var rc *RuntimeCollector
	rc.Sample()
	stop := rc.Start(time.Millisecond)
	stop()

	if rc2 := NewRuntimeCollector(nil); rc2 != nil {
		t.Fatal("NewRuntimeCollector(nil) returned a collector")
	}
	if NewSLOTracker(SLOConfig{}) == nil {
		t.Fatal("NewSLOTracker returned nil")
	}
}

func TestTraceBufferRetention(t *testing.T) {
	b := NewTraceBuffer(3, 2)
	for i := 1; i <= 5; i++ {
		b.Record(TraceRecord{TraceID: string(rune('a' + i - 1)), DurNs: int64(i * 100)})
	}
	// One huge outlier late in the stream.
	b.Record(TraceRecord{TraceID: "slowest", DurNs: 10_000})

	recent, slowest := b.Traces()
	if len(recent) != 3 {
		t.Fatalf("recent = %d, want 3", len(recent))
	}
	if recent[0].TraceID != "slowest" || recent[1].TraceID != "e" || recent[2].TraceID != "d" {
		t.Errorf("recent order = %v, want newest first", []string{recent[0].TraceID, recent[1].TraceID, recent[2].TraceID})
	}
	if len(slowest) != 2 {
		t.Fatalf("slowest = %d, want 2", len(slowest))
	}
	if slowest[0].TraceID != "slowest" || slowest[0].DurNs != 10_000 {
		t.Errorf("slowest[0] = %+v, want the 10000ns outlier", slowest[0])
	}
	if slowest[1].DurNs != 500 {
		t.Errorf("slowest[1] = %+v, want the 500ns trace", slowest[1])
	}
	if b.Total() != 6 {
		t.Errorf("total = %d, want 6", b.Total())
	}
}

func TestAccessLogNDJSON(t *testing.T) {
	var buf bytes.Buffer
	al := NewAccessLog(&buf)
	al.Log(AccessEvent{Trace: "t1", Route: "encode", Method: "POST", Status: 200, BytesIn: 10, BytesOut: 20})
	al.Log(AccessEvent{Trace: "t2", Route: "decode", Status: 400, ErrClass: "corrupt"})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var e AccessEvent
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if e.Trace != "t1" || e.Route != "encode" || e.Status != 200 || e.TimeUnixNano == 0 {
		t.Errorf("event 1 = %+v", e)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if e.ErrClass != "corrupt" {
		t.Errorf("event 2 err class = %q", e.ErrClass)
	}
}

func TestSLOTrackerBurn(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{
		Window:           10 * time.Second,
		Availability:     0.9, // 10% error budget: easy to burn in a test
		LatencyObjective: 100 * time.Millisecond,
		LatencyTarget:    0.9,
		BurnThreshold:    2,
	})
	// 10 good fast requests: ready.
	for i := 0; i < 10; i++ {
		tr.Observe(time.Millisecond, false)
	}
	if st := tr.Status(); !st.Ready || st.Total != 10 {
		t.Fatalf("healthy status = %+v", st)
	}
	// 10 errors: 50% error rate over a 10% budget = burn 5 >= 2.
	for i := 0; i < 10; i++ {
		tr.Observe(time.Millisecond, true)
	}
	st := tr.Status()
	if st.Ready {
		t.Fatalf("status still ready at burn %.1f: %+v", st.ErrorBurn, st)
	}
	if st.ErrorBurn < 2 {
		t.Errorf("error burn = %v, want >= 2", st.ErrorBurn)
	}

	// Slow-only burn trips the latency objective independently.
	tr2 := NewSLOTracker(SLOConfig{Window: 10 * time.Second, LatencyObjective: time.Millisecond, LatencyTarget: 0.5})
	for i := 0; i < 10; i++ {
		tr2.Observe(time.Second, false)
	}
	if st := tr2.Status(); st.Ready || st.LatencyBurn < 1 {
		t.Fatalf("latency burn not detected: %+v", st)
	}

	// Publish exports counters and gauges.
	reg := NewRegistry()
	tr.Publish(reg)
	if got := reg.Counter("ninecd.slo.observed").Value(); got != 20 {
		t.Errorf("published observed = %d, want 20", got)
	}
	if got := reg.Counter("ninecd.slo.errors").Value(); got != 10 {
		t.Errorf("published errors = %d, want 10", got)
	}
	if reg.Gauge("ninecd.slo.ready").Value() != 0 {
		t.Error("published ready gauge should be 0 while degraded")
	}
	// Publishing twice must not double-count the cumulative counters.
	tr.Publish(reg)
	if got := reg.Counter("ninecd.slo.observed").Value(); got != 20 {
		t.Errorf("re-published observed = %d, want still 20", got)
	}
}

func TestRuntimeCollectorSample(t *testing.T) {
	reg := NewRegistry()
	rc := NewRuntimeCollector(reg)
	rc.Sample()
	if reg.Gauge("runtime.heap_alloc_bytes").Value() == 0 {
		t.Error("heap gauge not sampled")
	}
	if reg.Gauge("runtime.goroutines").Value() == 0 {
		t.Error("goroutine gauge not sampled")
	}
	// The rate limiter makes an immediate second sample a no-op, and
	// Start/stop must not leak the ticker goroutine.
	rc.Sample()
	stop := rc.Start(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	stop()
	stop() // idempotent
}
