package main

import (
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

// fakeBackend is a stand-in ninecd that reports its own identity so
// tests can observe placement.
func fakeBackend(t *testing.T, name string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/encode", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Served-By", name)
		fmt.Fprintf(w, "%s:%d", name, len(body))
	})
	mux.HandleFunc("/decode", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Served-By", name)
		io.WriteString(w, name)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func newTestLB(t *testing.T, backends ...string) *lb {
	t.Helper()
	l, err := newLB(strings.Join(backends, ","), 1<<20, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func postVia(t *testing.T, l *lb, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, req)
	return rec
}

// TestStablePlacement: the same body always lands on the same backend,
// and distinct bodies use more than one backend.
func TestStablePlacement(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	b2 := fakeBackend(t, "b2")
	b3 := fakeBackend(t, "b3")
	l := newTestLB(t, b1.URL, b2.URL, b3.URL)

	used := map[string]bool{}
	for i := 0; i < 30; i++ {
		body := fmt.Sprintf("pattern-set-%d", i)
		first := ""
		for rep := 0; rep < 3; rep++ {
			rec := postVia(t, l, "/encode?k=8", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			served := rec.Header().Get("X-Served-By")
			if first == "" {
				first = served
			} else if served != first {
				t.Fatalf("body %d moved from %s to %s between replays", i, first, served)
			}
		}
		used[first] = true
	}
	if len(used) < 2 {
		t.Fatalf("30 distinct bodies all routed to one backend: %v", used)
	}
}

// TestXBackendHeader: the lb stamps which backend answered.
func TestXBackendHeader(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	l := newTestLB(t, b1.URL)
	rec := postVia(t, l, "/decode", "container-bytes")
	if got := rec.Header().Get("X-Backend"); got != b1.URL {
		t.Fatalf("X-Backend = %q, want %q", got, b1.URL)
	}
}

// TestRelayStripsHopByHopHeaders: headers that govern the lb↔backend
// connection (the RFC 9110 set plus anything the backend names in
// Connection) must not leak to the client, while end-to-end headers
// pass through.
func TestRelayStripsHopByHopHeaders(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		h := w.Header()
		h.Set("Keep-Alive", "timeout=5, max=100")
		h.Set("Proxy-Authenticate", "Basic")
		h.Set("Upgrade", "h2c")
		h.Set("Connection", "Upgrade, X-Per-Hop")
		h.Set("X-Per-Hop", "backend-only")
		h.Set("X-End-To-End", "keep-me")
		io.WriteString(w, "ok")
	}))
	t.Cleanup(backend.Close)
	l := newTestLB(t, backend.URL)

	rec := postVia(t, l, "/encode", "body")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	for _, k := range []string{"Keep-Alive", "Proxy-Authenticate", "Upgrade", "Connection", "X-Per-Hop"} {
		if got := rec.Header().Get(k); got != "" {
			t.Errorf("hop-by-hop header %s leaked to the client: %q", k, got)
		}
	}
	if got := rec.Header().Get("X-End-To-End"); got != "keep-me" {
		t.Errorf("end-to-end header lost: X-End-To-End = %q", got)
	}
}

// TestTransportFailover: a dead owner is routed around within one
// request; the survivor answers and the failover counter ticks.
func TestTransportFailover(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	b2 := fakeBackend(t, "b2")
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // port now refuses connections
	l := newTestLB(t, b1.URL, b2.URL, dead.URL)

	served := map[string]int{}
	for i := 0; i < 40; i++ {
		rec := postVia(t, l, "/encode", fmt.Sprintf("set-%d", i))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, rec.Code, rec.Body.String())
		}
		served[rec.Header().Get("X-Served-By")]++
	}
	if served[""] > 0 {
		t.Fatal("some responses had no X-Served-By")
	}
	if l.reg.Counter("ninecdlb.failovers").Value() == 0 {
		t.Fatal("40 requests over a ring with a dead node never failed over")
	}
	if got := l.reg.Counter("ninecdlb.requests").Value(); got != 40 {
		t.Fatalf("requests counter = %d, want 40", got)
	}
}

// TestBackendVerdictRelayed: a backend that answers 429 ends the
// chain — its verdict (status, Retry-After, body) passes through.
func TestBackendVerdictRelayed(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Retry-After", "7")
		w.Header().Set("X-Error-Class", "shed")
		http.Error(w, "shedding", http.StatusTooManyRequests)
	}))
	t.Cleanup(busy.Close)
	l := newTestLB(t, busy.URL)
	rec := postVia(t, l, "/encode", "anything")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "7" || rec.Header().Get("X-Error-Class") != "shed" {
		t.Fatalf("backend headers not relayed: %v", rec.Header())
	}
}

// TestHealthCheckRemovesUnreadyBackend: a backend answering 503 on
// /readyz leaves the ring; all traffic goes to the survivor; recovery
// brings it back.
func TestHealthCheckRemovesUnreadyBackend(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	var sick atomic503
	b2mux := http.NewServeMux()
	b2mux.HandleFunc("/encode", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Served-By", "b2")
		io.WriteString(w, "b2")
	})
	b2mux.HandleFunc("/readyz", sick.handler)
	b2 := httptest.NewServer(b2mux)
	t.Cleanup(b2.Close)

	l := newTestLB(t, b1.URL, b2.URL)
	sick.set(true)
	l.checkOnce()
	if got := len(l.ring.Healthy()); got != 1 {
		t.Fatalf("healthy backends = %d after unready probe, want 1", got)
	}
	for i := 0; i < 20; i++ {
		rec := postVia(t, l, "/encode", fmt.Sprintf("set-%d", i))
		if got := rec.Header().Get("X-Served-By"); got == "b2" {
			t.Fatal("unready backend b2 still received traffic")
		}
	}
	sick.set(false)
	l.checkOnce()
	if got := len(l.ring.Healthy()); got != 2 {
		t.Fatalf("healthy backends = %d after recovery, want 2", got)
	}
	if got := l.reg.Counter("ninecdlb.health_transitions").Value(); got != 2 {
		t.Fatalf("health transitions = %d, want 2", got)
	}
}

// TestReadyzReflectsRingAndDrain: /readyz is 200 with backends, 503
// with none, 503 while draining.
func TestReadyzReflectsRingAndDrain(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	l := newTestLB(t, b1.URL)
	get := func() int {
		rec := httptest.NewRecorder()
		l.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	if get() != http.StatusOK {
		t.Fatal("ready lb reported unready")
	}
	l.ring.SetHealthy(b1.URL, false)
	if get() != http.StatusServiceUnavailable {
		t.Fatal("lb with empty ring reported ready")
	}
	l.ring.SetHealthy(b1.URL, true)
	l.StartDrain()
	if get() != http.StatusServiceUnavailable {
		t.Fatal("draining lb reported ready")
	}
}

// TestNoBackends: every node down yields a 503 with Retry-After, not
// a hang or a panic.
func TestNoBackends(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	l := newTestLB(t, b1.URL)
	l.ring.SetHealthy(b1.URL, false)
	rec := postVia(t, l, "/encode", "x")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestBodyCap(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	l, err := newLB(b1.URL, 16, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rec := postVia(t, l, "/encode", strings.Repeat("0", 17))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}

func TestMethodGuard(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	l := newTestLB(t, b1.URL)
	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/encode", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
}

func TestRingTopologyEndpoint(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	b2 := fakeBackend(t, "b2")
	l := newTestLB(t, b1.URL, b2.URL)
	l.ring.SetHealthy(b2.URL, false)
	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ring", nil))
	body := rec.Body.String()
	if !strings.Contains(body, fmt.Sprintf("{\"url\":%q,\"healthy\":true}", b1.URL)) ||
		!strings.Contains(body, fmt.Sprintf("{\"url\":%q,\"healthy\":false}", b2.URL)) {
		t.Fatalf("ring topology missing health detail: %s", body)
	}
}

// TestMetricsExposition: /metrics is the lb's one metrics route, in
// the Prometheus text format; /metrics.json is gone.
func TestMetricsExposition(t *testing.T) {
	b1 := fakeBackend(t, "b1")
	l := newTestLB(t, b1.URL)
	if rec := postVia(t, l, "/encode", "set"); rec.Code != http.StatusOK {
		t.Fatalf("encode: %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	s, err := obs.ParsePrometheus(rec.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if got := s.Samples["ninecdlb_requests_total"]; got != 1 {
		t.Errorf("ninecdlb_requests_total = %v, want 1", got)
	}
	rec = httptest.NewRecorder()
	l.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /metrics.json = %d, want 404", rec.Code)
	}
}

func TestNewLBRejectsEmptyBackends(t *testing.T) {
	if _, err := newLB("", 1<<20, time.Second); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := newLB(" , ,", 1<<20, time.Second); err == nil {
		t.Fatal("blank backend list accepted")
	}
}

// atomic503 lets a test flip a fake backend's readiness.
type atomic503 struct{ v atomic.Bool }

func (a *atomic503) set(sick bool) { a.v.Store(sick) }

func (a *atomic503) handler(w http.ResponseWriter, _ *http.Request) {
	if a.v.Load() {
		http.Error(w, "degraded", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}
