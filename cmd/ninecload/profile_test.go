package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/batchenc"
	"repro/internal/codecopt"
	"repro/internal/obs"
	"repro/internal/tcube"
)

// profiledStub speaks the daemon's profile surface using the same
// internal kernels (codecopt.Search, batchenc) the real daemon uses,
// so ninecload's -profile path is tested against honest bytes without
// booting the full server.
type profiledStub struct {
	mu       sync.Mutex
	profiles map[string]codecopt.Profile
	missing  int // encodes that arrived without X-Codec-Profile
}

func newProfiledStub(t *testing.T) (*httptest.Server, *profiledStub) {
	t.Helper()
	st := &profiledStub{profiles: map[string]codecopt.Profile{}}
	enc := batchenc.New(batchenc.Config{})
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ready\n") })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
	})
	mux.HandleFunc("/train", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		seed, _ := strconv.ParseInt(r.URL.Query().Get("seed"), 10, 64)
		set, err := tcube.Read("corpus", bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rep, err := codecopt.Search([]*tcube.Set{set},
			codecopt.Options{Seed: seed, Ks: []int{8}, SkipDictionary: true})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st.mu.Lock()
		st.profiles[rep.ProfileID] = rep.Profile
		st.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/encode", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		name := r.URL.Query().Get("name")
		req := batchenc.Request{Name: name, K: 8}
		if id := r.Header.Get("X-Codec-Profile"); id != "" {
			st.mu.Lock()
			p, ok := st.profiles[id]
			st.mu.Unlock()
			if !ok {
				http.Error(w, "profile unknown", http.StatusNotFound)
				return
			}
			req.Profile = &p
			w.Header().Set("X-Codec-Profile", id)
		} else {
			st.mu.Lock()
			st.missing++
			st.mu.Unlock()
		}
		set, err := tcube.Read(name, bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Set = set
		res, err := enc.Encode(context.Background(), req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("X-Patterns", strconv.Itoa(res.Patterns))
		w.Header().Set("X-Compressed-Bits", strconv.Itoa(res.CompressedBits))
		w.Write(res.Container)
	})
	mux.HandleFunc("/decode", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "01\n")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, st
}

// TestProfileReplayVerifies: -profile trains first, every encode
// carries the trained profile, and -verify holds the responses to the
// local profiled reference byte for byte.
func TestProfileReplayVerifies(t *testing.T) {
	ts, st := newProfiledStub(t)
	var out bytes.Buffer
	code := realMain([]string{
		"-addr", ts.URL, "-n", "40", "-c", "4", "-seed", "9",
		"-mix", "0.25", "-corpus", "4", "-profile", "-verify", "-json",
	}, &out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, out.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.TrainedProfile == "" {
		t.Fatal("report missing trained profile ID")
	}
	if rep.TrainUpliftPct < 0 {
		t.Fatalf("trained uplift %.3f < 0", rep.TrainUpliftPct)
	}
	if rep.VerifyMismatches != 0 {
		t.Fatalf("%d verify mismatches under -profile: %v", rep.VerifyMismatches, rep.Violations)
	}
	st.mu.Lock()
	missing := st.missing
	st.mu.Unlock()
	if missing != 0 {
		t.Fatalf("%d encodes arrived without X-Codec-Profile in -profile mode", missing)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed requests: %v", rep.Failed, rep.Violations)
	}
}

// TestProfileModeTrainFailureIsSetupError: a daemon without /train
// (pre-profile build) must fail the run at setup, exit 2, not report
// bogus SLO numbers.
func TestProfileModeTrainFailureIsSetupError(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ready\n") })
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var out bytes.Buffer
	code := realMain([]string{"-addr", ts.URL, "-n", "5", "-c", "1", "-profile", "-json"}, &out)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (setup failure): %s", code, out.String())
	}
}
