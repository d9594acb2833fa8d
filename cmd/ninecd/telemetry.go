package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The telemetry surface of the daemon: every request gets a trace ID
// (inbound X-Request-ID honored, generated otherwise, always echoed),
// a root span that the codec stages nest under and whose log2
// histogram span.ninecd.http.<route> is the route's latency series,
// per-route counters, an optional NDJSON access-log line, and a slot
// in the bounded trace ring served at /debug/traces. /metrics serves
// the Prometheus text exposition and /readyz the SLO burn-rate verdict.

// reqInfo carries per-request facts (queue wait, error class) from the
// guard back out to the instrument middleware that logs them.
type reqInfo struct {
	queueWait time.Duration
	errClass  string
}

type reqInfoKey struct{}

func withReqInfo(ctx context.Context, info *reqInfo) context.Context {
	return context.WithValue(ctx, reqInfoKey{}, info)
}

func reqInfoFrom(ctx context.Context) *reqInfo {
	info, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return info
}

// statusWriter records the response status and body size without
// changing what the client sees.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer,
// so controls like EnableFullDuplex (the streaming /decode path) work
// through the instrumentation wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countingReader counts request body bytes actually consumed.
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// statusClass buckets a status code for the per-route class counters.
func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// sanitizeRequestID accepts an inbound X-Request-ID only when it is
// short and printable; anything else is replaced by a generated ID so
// hostile header bytes never reach logs or trace exports.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' {
			return ""
		}
	}
	return id
}

// instrument wraps a handler with the per-request telemetry contract:
// root span (trace ID from the request), whose end records the route's
// latency, per-route request/status counters, the SLO observation
// (serving routes only), the trace ring slot, and the access-log line.
// Everything it exports carries routing metadata and timings only —
// never payload bytes.
func (s *server) instrument(route string, serving bool, h http.HandlerFunc) http.HandlerFunc {
	// Metric handles resolve once at route registration, not per
	// request, so the request path never takes the registry map lock.
	allReqs := s.reg.Counter("ninecd.http.requests")
	reqs := s.reg.Counter("ninecd.http." + route + ".requests")
	spanName := "ninecd.http." + route
	s.reg.Describe("span."+spanName,
		"request latency of "+route+" in ns, wall time inside the daemon")
	classes := [4]*obs.Counter{
		s.reg.Counter("ninecd.http." + route + ".status.2xx"),
		s.reg.Counter("ninecd.http." + route + ".status.3xx"),
		s.reg.Counter("ninecd.http." + route + ".status.4xx"),
		s.reg.Counter("ninecd.http." + route + ".status.5xx"),
	}
	classIdx := map[string]int{"2xx": 0, "3xx": 1, "4xx": 2, "5xx": 3}

	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		allReqs.Inc()
		reqs.Inc()

		info := &reqInfo{}
		ctx := withReqInfo(r.Context(), info)
		id := obs.TraceIDFromContext(ctx)
		sp := s.reg.Span(spanName).WithTraceID(id).Collect()
		ctx = obs.ContextWithSpan(ctx, sp)

		cr := &countingReader{rc: r.Body}
		r2 := r.WithContext(ctx)
		r2.Body = cr
		sw := &statusWriter{ResponseWriter: w}

		h(sw, r2)

		dur := time.Since(start)
		sp.End()
		status := sw.Status()
		classes[classIdx[statusClass(status)]].Inc()
		if serving {
			s.slo.Observe(dur, status >= http.StatusInternalServerError)
		}
		s.traces.Record(obs.TraceRecord{
			TraceID: id, Route: route, Method: r.Method, Status: status,
			StartUnixNano: start.UnixNano(), DurNs: dur.Nanoseconds(),
			BytesIn: cr.n, BytesOut: sw.bytes,
			QueueWaitNs: info.queueWait.Nanoseconds(),
			ErrClass:    info.errClass,
			Spans:       sp.Records(),
		})
		s.access.Log(obs.AccessEvent{
			Trace: id, Route: route, Method: r.Method, Status: status,
			BytesIn: cr.n, BytesOut: sw.bytes,
			QueueWaitNs: info.queueWait.Nanoseconds(),
			HandlerNs:   dur.Nanoseconds(),
			ErrClass:    info.errClass,
		})
	}
}

// handleMetricsProm serves the Prometheus text exposition. Runtime and
// SLO metrics are refreshed at scrape time so every scrape reflects a
// live evaluation.
func (s *server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	s.rc.Sample()
	s.slo.Publish(s.reg)
	w.Header().Set("Content-Type", obs.PromContentType)
	if err := s.reg.WritePrometheus(w); err != nil {
		// Headers are committed by the first write; a failure here is a
		// mid-stream client loss, which is exactly what the counter is
		// scoped to.
		s.reg.Counter("ninecd.metrics.write_errors").Inc()
	}
}

// handleReadyz is the SLO-backed readiness probe: it degrades (503)
// when the rolling window burns error or latency budget faster than
// the threshold — before /healthz, which only proves liveness, would
// ever fail.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		// Draining trumps the SLO verdict: the instant shutdown begins,
		// load balancers must stop routing here — before the listener
		// closes, while in-flight requests are still finishing.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	st := s.slo.Status()
	s.slo.Publish(s.reg)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if st.Ready {
		fmt.Fprintf(w, "ready (window %ds: %d requests, error_burn %.2f, latency_burn %.2f)\n",
			st.WindowSeconds, st.Total, st.ErrorBurn, st.LatencyBurn)
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, "degraded: error_burn %.2f latency_burn %.2f over %ds window (%d requests, %d errors, %d slow)\n",
		st.ErrorBurn, st.LatencyBurn, st.WindowSeconds, st.Total, st.Errors, st.Slow)
}

// handleDebugTraces serves the retained traces: the most recent and
// the slowest completed requests, spans included — names, IDs, and
// durations only, redacted to the same standard as the panic path (no
// payload bytes, ever).
func (s *server) handleDebugTraces(w http.ResponseWriter, _ *http.Request) {
	recent, slowest := s.traces.Traces()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Total   int64             `json:"total"`
		Recent  []obs.TraceRecord `json:"recent"`
		Slowest []obs.TraceRecord `json:"slowest"`
	}{s.traces.Total(), recent, slowest}); err != nil {
		s.reg.Counter("ninecd.traces.write_errors").Inc()
	}
}
