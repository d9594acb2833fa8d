package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// poison makes l overwrite every request body with 0xEE at its last
// release, before the buffer goes back to the pool, and returns a
// channel that receives once per release. A send that still read the
// body after its release would ship the sentinel to its backend.
func poison(l *lb, capacity int) <-chan struct{} {
	released := make(chan struct{}, capacity)
	l.bodyReleased = func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
		released <- struct{}{}
	}
	return released
}

// awaitReleases waits for n releases on released, and then checks that
// no more follow: each body goes back to the pool exactly once.
func awaitReleases(t *testing.T, released <-chan struct{}, n int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-released:
		case <-timeout:
			t.Fatalf("%d of %d request bodies released", i, n)
		}
	}
	select {
	case <-released:
		t.Fatalf("more than %d releases for %d request bodies", n, n)
	case <-time.After(50 * time.Millisecond):
	}
}

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// sumBackend answers every POST with the hex SHA-256 of the body it
// received, and /train with a report naming canonical as its profile.
// got records each sum by path.
type sumBackend struct {
	srv *httptest.Server
	mu  sync.Mutex
	got map[string][]string
}

func newSumBackend(t *testing.T, canonical string) *sumBackend {
	t.Helper()
	b := &sumBackend{got: map[string][]string{}}
	b.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("backend read: %v", err)
		}
		b.mu.Lock()
		b.got[r.URL.Path] = append(b.got[r.URL.Path], sum(data))
		b.mu.Unlock()
		if r.URL.Path == "/train" {
			fmt.Fprintf(w, `{"profile":%q}`, canonical)
			return
		}
		io.WriteString(w, sum(data))
	}))
	t.Cleanup(b.srv.Close)
	return b
}

func (b *sumBackend) sums(path string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.got[path]...)
}

// randomBody is n bytes of 01X text from rng.
func randomBody(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = "01X\n"[rng.Intn(4)]
	}
	return b
}

// TestBodyLifecycleFailover: bodies sent from several goroutines at
// once, over a ring whose dead member makes some of them fail over,
// reach the live backend byte for byte, while every released body is
// poisoned; each body is released exactly once.
func TestBodyLifecycleFailover(t *testing.T) {
	live := newSumBackend(t, "")
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	l := newTestLB(t, dead.URL, live.srv.URL)
	const clients, perClient = 4, 12
	released := poison(l, 2*clients*perClient)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				body := randomBody(rng, 1+rng.Intn(600<<10))
				req := httptest.NewRequest(http.MethodPost, "/encode", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				l.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK || rec.Body.String() != sum(body) {
					t.Errorf("client %d request %d: status %d, backend got sum %.16s, want %.16s", c, i, rec.Code, rec.Body.String(), sum(body))
				}
			}
		}(c)
	}
	wg.Wait()
	if l.failovers.Value() == 0 {
		t.Fatal("no request failed over from the dead backend")
	}
	awaitReleases(t, released, clients*perClient)
}

// TestBodyLifecycleEarlyAnswer: a backend answers 413 before it reads
// the body, while the lb is still writing it, then reads it all and
// sends its sum as the rest of the answer. The transport is still
// sending after RoundTrip has returned, so a body released then would
// reach the backend poisoned.
func TestBodyLifecycleEarlyAnswer(t *testing.T) {
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		w.(http.Flusher).Flush()
		data, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("backend read: %v", err)
		}
		io.WriteString(w, sum(data))
	}))
	// A small receive buffer keeps most of the body in the lb's hands
	// when the answer arrives.
	backend.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			c.(*net.TCPConn).SetReadBuffer(16 << 10)
		}
	}
	backend.Start()
	t.Cleanup(backend.Close)
	l, err := newLB(backend.URL, 64<<20, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	released := poison(l, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2; i++ {
		body := bytes.Repeat(randomBody(rng, 64<<10), 128)
		rec := httptest.NewRecorder()
		l.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/encode", bytes.NewReader(body)))
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != sum(body) {
			t.Fatalf("request %d: status %d, backend got sum %.16s, want %.16s", i, rec.Code, rec.Body.String(), sum(body))
		}
	}
	awaitReleases(t, released, 2)
}

// TestBodyLifecycleProfiles: a /profiles install reaches every backend
// and a /train corpus its owner, byte for byte, and the trained profile
// reaches every other backend through the sync, while every released
// body is poisoned. The install and the corpus are one body each, the
// sync's profile a third.
func TestBodyLifecycleProfiles(t *testing.T) {
	canonical := string(bytes.Repeat([]byte("9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,4\n"), 7000))
	backends := []*sumBackend{newSumBackend(t, canonical), newSumBackend(t, canonical), newSumBackend(t, canonical)}
	l := newTestLB(t, backends[0].srv.URL, backends[1].srv.URL, backends[2].srv.URL)
	released := poison(l, 8)
	rng := rand.New(rand.NewSource(2))

	install := randomBody(rng, 300<<10)
	if rec := postVia(t, l, "/profiles", string(install)); rec.Code != http.StatusOK || rec.Body.String() != sum(install) {
		t.Fatalf("install: status %d, backend got sum %.16s", rec.Code, rec.Body.String())
	}
	corpus := randomBody(rng, 500<<10)
	if rec := postVia(t, l, "/train", string(corpus)); rec.Code != http.StatusOK {
		t.Fatalf("train: status %d %s", rec.Code, rec.Body.String())
	}
	owners := 0
	for i, b := range backends {
		profiles := b.sums("/profiles")
		if len(profiles) == 0 || profiles[0] != sum(install) {
			t.Fatalf("backend %d: install sums %v, want %.16s first", i, profiles, sum(install))
		}
		switch trains := b.sums("/train"); {
		case len(trains) == 1 && trains[0] == sum(corpus) && len(profiles) == 1:
			owners++
		case len(trains) == 0 && len(profiles) == 2 && profiles[1] == sum([]byte(canonical)):
		default:
			t.Fatalf("backend %d: train sums %v and profile sums %v, want the corpus or the synced profile", i, trains, profiles)
		}
	}
	if owners != 1 {
		t.Fatalf("%d backends trained, want 1", owners)
	}
	awaitReleases(t, released, 3)
}

// TestForwardAllocsIndependentOfBody pins the bytes one forward
// allocates, after warm-up, at each of BenchmarkForward's body sizes:
// under 16 KiB, and the same within 2 KiB from 24 to 200 KB. The body
// buffer, the backend write's copy buffer and the relay's are pooled;
// with any of them allocated per request the figure grows with the
// body or passes 32 KiB.
func TestForwardAllocsIndependentOfBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	forward := newForwardHop(t)
	perOp := map[int]float64{}
	for _, kb := range forwardKB {
		body := forwardBody(kb)
		for i := 0; i < 20; i++ {
			forward(t, body)
		}
		// The least of three rounds, so a GC that empties the pools
		// during one round does not decide the figure.
		const n = 50
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				forward(t, body)
			}
			runtime.ReadMemStats(&after)
			if b := float64(after.TotalAlloc-before.TotalAlloc) / n; round == 0 || b < perOp[kb] {
				perOp[kb] = b
			}
		}
		t.Logf("%d KB body: %.0f B allocated per forward", kb, perOp[kb])
		if perOp[kb] >= 16<<10 {
			t.Errorf("%d KB body: %.0f B allocated per forward, want under 16 KiB", kb, perOp[kb])
		}
	}
	if d := perOp[200] - perOp[24]; d > 2<<10 {
		t.Errorf("a 200 KB body allocates %.0f B more per forward than a 24 KB one, want at most 2 KiB", d)
	}
}
