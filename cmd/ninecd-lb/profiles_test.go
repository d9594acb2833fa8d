package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// profileBackend is a fake backend with a real-enough profile surface:
// /train answers a canned report, /profiles records installs, and
// /profiles/{id} serves what was installed.
type profileBackend struct {
	name string
	srv  *httptest.Server

	mu        sync.Mutex
	installed map[string]string // id -> canonical
	trains    int
}

func newProfileBackend(t *testing.T, name, trainID, trainCanonical string) *profileBackend {
	t.Helper()
	b := &profileBackend{name: name, installed: map[string]string{}}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
	mux.HandleFunc("/encode", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Served-By", name)
		if p := r.Header.Get("X-Codec-Profile"); p != "" {
			w.Header().Set("X-Codec-Profile", p)
		}
		io.WriteString(w, name)
	})
	mux.HandleFunc("/train", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		b.mu.Lock()
		b.trains++
		b.installed[trainID] = trainCanonical
		b.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":%q,"profile":%q,"uplift_pct":1.25}`, trainID, trainCanonical)
	})
	mux.HandleFunc("/profiles", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !strings.HasPrefix(string(body), "9cprof/") {
			http.Error(w, "corrupt profile", http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		b.installed[trainID] = string(body)
		b.mu.Unlock()
		w.Header().Set("X-Codec-Profile", trainID)
		fmt.Fprintf(w, `{"id":%q}`, trainID)
	})
	mux.HandleFunc("/profiles/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/profiles/")
		b.mu.Lock()
		canon, ok := b.installed[id]
		b.mu.Unlock()
		if !ok {
			http.Error(w, "unknown", http.StatusNotFound)
			return
		}
		w.Header().Set("X-Served-By", name)
		io.WriteString(w, canon)
	})
	b.srv = httptest.NewServer(mux)
	t.Cleanup(b.srv.Close)
	return b
}

func (b *profileBackend) installCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.installed)
}

const testCanonical = "9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,4\n"

// TestTrainSyncsProfileFleetWide: one backend runs the search, every
// other healthy backend receives the winning profile.
func TestTrainSyncsProfileFleetWide(t *testing.T) {
	b1 := newProfileBackend(t, "b1", "prof1", testCanonical)
	b2 := newProfileBackend(t, "b2", "prof1", testCanonical)
	b3 := newProfileBackend(t, "b3", "prof1", testCanonical)
	l := newTestLB(t, b1.srv.URL, b2.srv.URL, b3.srv.URL)

	rec := postVia(t, l, "/train", "0X1X\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("train via lb: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"uplift_pct":1.25`) {
		t.Fatalf("owner's report not relayed: %s", rec.Body.String())
	}
	trained := 0
	for _, b := range []*profileBackend{b1, b2, b3} {
		b.mu.Lock()
		trained += b.trains
		b.mu.Unlock()
		if b.installCount() == 0 {
			t.Errorf("backend %s never received the trained profile", b.name)
		}
	}
	if trained != 1 {
		t.Fatalf("search ran on %d backends, want exactly 1", trained)
	}
}

// TestProfileInstallFansOut: POST /profiles reaches every healthy
// backend, and GET /profiles/{id} through the lb finds the artifact.
func TestProfileInstallFansOut(t *testing.T) {
	b1 := newProfileBackend(t, "b1", "prof1", testCanonical)
	b2 := newProfileBackend(t, "b2", "prof1", testCanonical)
	l := newTestLB(t, b1.srv.URL, b2.srv.URL)

	rec := postVia(t, l, "/profiles", testCanonical)
	if rec.Code != http.StatusOK {
		t.Fatalf("install via lb: %d %s", rec.Code, rec.Body.String())
	}
	for _, b := range []*profileBackend{b1, b2} {
		if b.installCount() != 1 {
			t.Errorf("backend %s installs = %d, want 1", b.name, b.installCount())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/profiles/prof1", nil)
	get := httptest.NewRecorder()
	l.ServeHTTP(get, req)
	if get.Code != http.StatusOK || get.Body.String() != testCanonical {
		t.Fatalf("get via lb: %d %q", get.Code, get.Body.String())
	}

	// A corrupt profile must come back 4xx without reaching backend 2.
	bad := postVia(t, l, "/profiles", "not a profile")
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("corrupt install: %d, want 400", bad.Code)
	}
}

// TestProfileShardKey: the same body under different profile headers
// may route independently, and each (profile, body) pair routes
// stably — the cache-locality contract of HashTagged.
func TestProfileShardKey(t *testing.T) {
	backends := make([]*profileBackend, 4)
	urls := make([]string, 4)
	for i := range backends {
		backends[i] = newProfileBackend(t, fmt.Sprintf("b%d", i), "p", testCanonical)
		urls[i] = backends[i].srv.URL
	}
	l := newTestLB(t, urls...)

	served := func(profile, body string) string {
		req := httptest.NewRequest(http.MethodPost, "/encode", strings.NewReader(body))
		if profile != "" {
			req.Header.Set("X-Codec-Profile", profile)
		}
		rec := httptest.NewRecorder()
		l.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("encode: %d", rec.Code)
		}
		return rec.Header().Get("X-Served-By")
	}
	moved := false
	for i := 0; i < 16; i++ {
		body := fmt.Sprintf("pattern-set-%d", i)
		fixed, tuned := served("", body), served("aabbcc", body)
		if served("", body) != fixed || served("aabbcc", body) != tuned {
			t.Fatal("placement not stable across replays")
		}
		if fixed != tuned {
			moved = true
		}
	}
	if !moved {
		t.Fatal("profile tag never changed placement across 16 bodies; HashTagged is ignoring the tag")
	}
}

// TestEncodeRelaysProfileHeader: X-Codec-Profile travels lb -> backend
// and the backend's echo travels back.
func TestEncodeRelaysProfileHeader(t *testing.T) {
	b1 := newProfileBackend(t, "b1", "p", testCanonical)
	l := newTestLB(t, b1.srv.URL)
	req := httptest.NewRequest(http.MethodPost, "/encode", strings.NewReader("0X\n"))
	req.Header.Set("X-Codec-Profile", "deadbeef")
	rec := httptest.NewRecorder()
	l.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("encode: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Codec-Profile"); got != "deadbeef" {
		t.Fatalf("profile header round-trip = %q, want deadbeef", got)
	}
}

// TestTrainFailsOverDeadOwner: a dead corpus owner does not kill the
// train — the next ring successor runs it.
func TestTrainFailsOverDeadOwner(t *testing.T) {
	live := newProfileBackend(t, "live", "prof1", testCanonical)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // transport-level failure, health checker hasn't noticed yet
	l := newTestLB(t, deadURL, live.srv.URL)
	// No health checks started: both stay on the ring.
	deadline := time.Now().Add(time.Second)
	for {
		rec := postVia(t, l, "/train", "0X1X\n")
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("train never failed over: %d %s", rec.Code, rec.Body.String())
		}
	}
}
