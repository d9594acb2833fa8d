package inject

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// backendAndProxy boots an httptest HTTP backend and a chaos proxy in
// front of it, returning the proxy and a client that disables
// keep-alives so every request is its own proxied connection (one
// request == one seeded chaos plan).
func backendAndProxy(t *testing.T, cfg ProxyConfig, handler http.Handler) (*Proxy, *http.Client) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	p, err := NewProxy(strings.TrimPrefix(ts.URL, "http://"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	hc := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   10 * time.Second,
	}
	return p, hc
}

func echoHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Write(body)
	})
}

// TestProxyTransparentRelay: a zero config proxy is an invisible pipe —
// bodies round-trip byte-for-byte and the byte counters move.
func TestProxyTransparentRelay(t *testing.T) {
	p, hc := backendAndProxy(t, ProxyConfig{Seed: 1}, echoHandler())
	payload := strings.Repeat("0101X\n", 512)
	for i := 0; i < 3; i++ {
		resp, err := hc.Post("http://"+p.Addr()+"/echo", "text/plain", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != payload {
			t.Fatalf("round-trip corrupted: got %d bytes, want %d", len(body), len(payload))
		}
	}
	st := p.Stats()
	if st.Conns < 3 || st.BytesUp == 0 || st.BytesDown == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Resets+st.SlowLoris != 0 {
		t.Fatalf("zero config injected faults: %+v", st)
	}
}

// TestProxyResetsProduceResetErrors: ResetProb=1 severs every response
// mid-body with an RST; the client must observe an error, never a
// silently short body.
func TestProxyResetsProduceResetErrors(t *testing.T) {
	big := strings.Repeat("payload-", 4<<10) // well past any resetAt draw
	p, hc := backendAndProxy(t, ProxyConfig{Seed: 7, ResetProb: 1}, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, big)
		}))
	failures := 0
	for i := 0; i < 5; i++ {
		resp, err := hc.Get("http://" + p.Addr() + "/big")
		if err != nil {
			failures++
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || len(body) < len(big) {
			failures++
		}
	}
	if failures != 5 {
		t.Fatalf("only %d/5 requests failed under ResetProb=1", failures)
	}
	if st := p.Stats(); st.Resets == 0 {
		t.Fatalf("no resets recorded: %+v", st)
	}
}

// TestProxyPlanDeterministic: the chaos plan is a pure function of
// (seed, connection id) — same inputs, identical plan; different seed,
// a different plan somewhere in a small id range.
func TestProxyPlanDeterministic(t *testing.T) {
	a := &Proxy{cfg: ProxyConfig{Seed: 42, ResetProb: 0.5, SlowLorisProb: 0.5}}
	b := &Proxy{cfg: a.cfg}
	c := &Proxy{cfg: ProxyConfig{Seed: 43, ResetProb: 0.5, SlowLorisProb: 0.5}}
	diverged := false
	for id := int64(1); id <= 32; id++ {
		pa, pb, pc := a.plan(id), b.plan(id), c.plan(id)
		if pa != pb {
			t.Fatalf("same seed diverged at id %d: %+v vs %+v", id, pa, pb)
		}
		if pa != pc {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical plans for 32 connections")
	}
}

// TestProxySlowLorisDripsButCompletes: a 100% slow-loris proxy still
// delivers the full body, just slowly — and records that it dripped.
func TestProxySlowLorisDripsButCompletes(t *testing.T) {
	p, hc := backendAndProxy(t, ProxyConfig{Seed: 3, SlowLorisProb: 1}, echoHandler())
	payload := strings.Repeat("x", 1024)
	resp, err := hc.Post("http://"+p.Addr()+"/echo", "text/plain", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != payload {
		t.Fatalf("slow-loris corrupted body: err=%v len=%d", err, len(body))
	}
	if st := p.Stats(); st.SlowLoris == 0 {
		t.Fatalf("slow-loris not recorded: %+v", st)
	}
}

// TestProxyCloseIdempotentAndSevers: Close is safe to call twice and
// kills in-flight connections rather than waiting on them.
func TestProxyCloseIdempotentAndSevers(t *testing.T) {
	started := make(chan struct{})
	p, hc := backendAndProxy(t, ProxyConfig{Seed: 5, SlowLorisProb: 1}, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, strings.Repeat("z", 32<<10))
		}))
	go func() {
		close(started)
		// Dripped at 64B/2ms this would take ~1s; Close must cut it off.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+p.Addr()+"/big", nil)
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	time.Sleep(100 * time.Millisecond) // let the drip begin
	done := make(chan struct{})
	go func() {
		p.Close()
		p.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close hung on an in-flight slow-loris connection")
	}
	if _, err := hc.Get("http://" + p.Addr() + "/after"); err == nil {
		t.Fatal("proxy accepted a connection after Close")
	}
}
