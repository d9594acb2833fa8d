package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tcube"
)

// recordingDaemon is a stub that logs every encode's name and body so
// tests can audit the replay distribution.
type recordingDaemon struct {
	mu     sync.Mutex
	bodies map[string][]string // name -> bodies seen
}

func newRecordingDaemon(t *testing.T, cacheCounters string) (*httptest.Server, *recordingDaemon) {
	t.Helper()
	rec := &recordingDaemon{bodies: make(map[string][]string)}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ready\n") })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		io.WriteString(w, cacheCounters)
	})
	mux.HandleFunc("/encode", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		rec.mu.Lock()
		name := r.URL.Query().Get("name")
		rec.bodies[name] = append(rec.bodies[name], string(body))
		rec.mu.Unlock()
		io.WriteString(w, "container")
	})
	mux.HandleFunc("/decode", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "01\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, rec
}

// TestDupReplayDistribution: -dup-ratio splits encodes between a
// finite corpus (stable names, stable bodies) and unique cold sets,
// in roughly the requested proportion, deterministically per seed.
func TestDupReplayDistribution(t *testing.T) {
	ts, rec := newRecordingDaemon(t, "ninecd_cache_hit_total 90\nninecd_cache_miss_total 10\nninecd_cache_coalesced_total 4\n")
	var out bytes.Buffer
	code := realMain([]string{
		"-addr", ts.URL, "-n", "200", "-c", "4", "-seed", "11",
		"-mix", "0", "-dup-ratio", "0.8", "-corpus", "4", "-json",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	corpusReqs, coldReqs := 0, 0
	for name, bodies := range rec.bodies {
		switch {
		case strings.HasPrefix(name, "corpus-"):
			corpusReqs += len(bodies)
			for _, b := range bodies[1:] {
				if b != bodies[0] {
					t.Fatalf("corpus set %s replayed with differing bodies — not cacheable", name)
				}
			}
		case strings.HasPrefix(name, "cold-"):
			coldReqs += len(bodies)
			if len(bodies) != 1 {
				t.Fatalf("cold set %s issued %d times, want 1", name, len(bodies))
			}
		default:
			t.Fatalf("unexpected encode name %q", name)
		}
	}
	if corpusReqs+coldReqs != 200 {
		t.Fatalf("recorded %d encodes, want 200", corpusReqs+coldReqs)
	}
	frac := float64(corpusReqs) / 200
	if frac < 0.65 || frac > 0.95 {
		t.Fatalf("corpus fraction %.2f far from -dup-ratio 0.8", frac)
	}

	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 90 || rep.CacheMisses != 10 || rep.CacheCoalesced != 4 {
		t.Fatalf("cache counters %d/%d/%d not scraped", rep.CacheHits, rep.CacheMisses, rep.CacheCoalesced)
	}
	if rep.CacheHitRatio < 0.899 || rep.CacheHitRatio > 0.901 {
		t.Fatalf("cache hit ratio %.4f, want 0.9", rep.CacheHitRatio)
	}
}

// TestVerifyCatchesWrongBytes: a daemon answering corpus encodes with
// bogus bytes must fail -verify with a violation and exit 1.
func TestVerifyCatchesWrongBytes(t *testing.T) {
	ts, _ := newRecordingDaemon(t, "ninecd_cache_hit_total 0\n")
	var out bytes.Buffer
	code := realMain([]string{
		"-addr", ts.URL, "-n", "20", "-c", "2", "-seed", "3",
		"-mix", "0", "-dup-ratio", "1", "-verify", "-json",
	}, &out)
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.VerifyMismatches != 20 {
		t.Fatalf("verify mismatches = %d, want 20", rep.VerifyMismatches)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "differed from the local reference") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no verify violation in %v", rep.Violations)
	}
}

// TestVerifyPassesFaithfulDaemon: a stub that actually runs the codec
// the way ninecd does produces byte-identical containers, so -verify
// stays green — the reference encode and the daemon agree bit for bit.
func TestVerifyPassesFaithfulDaemon(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ready\n") })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("/encode", func(w http.ResponseWriter, r *http.Request) {
		set, err := tcube.Read(r.URL.Query().Get("name"), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cdc, err := core.New(8)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		res, err := cdc.EncodeSet(set)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		res.Name = set.Name
		container.WriteVersion(w, res, container.Magic4)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	code := realMain([]string{
		"-addr", ts.URL, "-n", "30", "-c", "3", "-seed", "5",
		"-mix", "0", "-dup-ratio", "0.9", "-verify", "-keepalive", "-json",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.VerifyMismatches != 0 || rep.Succeeded != 30 {
		t.Fatalf("mismatches=%d succeeded=%d, want 0/30", rep.VerifyMismatches, rep.Succeeded)
	}
}
