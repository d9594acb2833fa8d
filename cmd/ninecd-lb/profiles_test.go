package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
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

// buildNinecd builds the real daemon for tests that need its /train.
func buildNinecd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ninecd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/ninecd").CombinedOutput(); err != nil {
		t.Fatalf("go build ninecd: %v\n%s", err, out)
	}
	return bin
}

// startNinecd runs the daemon binary on a free loopback port and
// returns its base URL; the process is killed at cleanup. One goroutine
// reads stderr to its end, finding the listen address on the way, so
// Wait runs only after every read of the pipe is done.
func startNinecd(t *testing.T, bin string) string {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "ninecd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-done
		cmd.Wait()
	})
	select {
	case a := <-addr:
		return "http://" + a
	case <-done:
		t.Fatal("ninecd exited without a listen address")
		return ""
	}
}

// TestTrainSyncsProfileFleetWide: through the lb, one real ninecd runs
// the search, its 200 report is relayed, and every other backend
// receives the winning profile. async=1 is one input: the daemon
// ignores it, so the lb still gets the report it syncs from.
func TestTrainSyncsProfileFleetWide(t *testing.T) {
	bin := buildNinecd(t)
	corpus, err := os.ReadFile("../../examples/cubes.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"", "?async=1"} {
		urls := []string{startNinecd(t, bin), startNinecd(t, bin), startNinecd(t, bin)}
		l := newTestLB(t, urls...)
		rec := postVia(t, l, "/train"+q, string(corpus))
		if rec.Code != http.StatusOK {
			t.Fatalf("/train%s via lb: %d %s", q, rec.Code, rec.Body.String())
		}
		var rep struct {
			ID      string `json:"id"`
			Profile string `json:"profile"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rep.ID == "" {
			t.Fatalf("/train%s via lb: report %s (%v)", q, rec.Body.String(), err)
		}
		trained := 0.0
		for _, u := range urls {
			if got := httpGet(t, u+"/profiles/"+rep.ID); got != rep.Profile {
				t.Errorf("/train%s: backend %s holds %q, want the trained profile %q", q, u, got, rep.Profile)
			}
			s, err := obs.ParsePrometheus(strings.NewReader(httpGet(t, u+"/metrics")))
			if err != nil {
				t.Fatal(err)
			}
			trained += s.Samples["ninecd_train_requests_total"]
		}
		if trained != 1 {
			t.Fatalf("/train%s: search ran on %v backends, want exactly 1", q, trained)
		}
	}
}

// httpGet returns the body of a GET, or "" for a non-200 answer.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return ""
	}
	return string(body)
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
