package main

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSoakRetryPath is the short -race soak of the client retry path
// wired into `make resilience-soak`: many goroutines hammer a server
// that fails ~35% of requests (503s, connection slams, stalls) through
// one shared client, its retry loop and seeded jitter stream under
// concurrent fire. The assertions are the resilience contract:
//
//   - every call either succeeds or fails with a classified error
//   - no call overruns its deadline budget (plus bounded slack)
//   - the process never panics and the race detector stays quiet
func TestSoakRetryPath(t *testing.T) {
	const (
		goroutines = 16
		perG       = 25
		budget     = 2 * time.Second
	)
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Deterministic per-request misbehavior from the request index.
		n := served.Add(1)
		rng := rand.New(rand.NewSource(n))
		switch f := rng.Float64(); {
		case f < 0.15:
			w.Header().Set("Retry-After", "0")
			w.Header().Set("X-Error-Class", "saturated")
			http.Error(w, "busy", http.StatusServiceUnavailable)
		case f < 0.25:
			if hj, ok := w.(http.Hijacker); ok {
				conn, _, _ := hj.Hijack()
				conn.Close()
				return
			}
			http.Error(w, "down", http.StatusServiceUnavailable)
		case f < 0.35:
			time.Sleep(30 * time.Millisecond) // slow, but within budget
			w.Write([]byte("slow-ok"))
		default:
			w.Write([]byte("ok"))
		}
	}))
	defer ts.Close()

	c := newTestClient(t, ts.URL, policy{
		maxAttempts:    6,
		attemptTimeout: 500 * time.Millisecond,
		budget:         budget,
	})
	c.retr.baseDelay, c.retr.maxDelay = 2*time.Millisecond, 20*time.Millisecond

	var ok, failed, unclassified atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				start := time.Now()
				var err error
				if i%2 == 0 {
					_, err = c.encode(context.Background(), "soak", []byte("0101\n"))
				} else {
					_, err = c.decode(context.Background(), []byte("container"))
				}
				elapsed := time.Since(start)
				if elapsed > budget+time.Second {
					t.Errorf("call ran %v, budget %v", elapsed, budget)
				}
				if err == nil {
					ok.Add(1)
					continue
				}
				failed.Add(1)
				if errorClass(err) == "unclassified" {
					unclassified.Add(1)
					t.Errorf("unclassified soak failure: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	total := ok.Load() + failed.Load()
	if total != goroutines*perG {
		t.Fatalf("accounting lost calls: %d of %d", total, goroutines*perG)
	}
	// With 6 attempts against a ~25% transient-fault plane, nearly
	// everything must recover; a majority failing means retry is broken.
	if ok.Load() < total*3/4 {
		t.Fatalf("only %d/%d calls recovered", ok.Load(), total)
	}
	if unclassified.Load() != 0 {
		t.Fatalf("%d unclassified failures", unclassified.Load())
	}
}
