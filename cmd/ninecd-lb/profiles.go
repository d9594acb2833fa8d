package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"strings"

	"repro/internal/hashring"
)

// handleTrain routes a training corpus to the ring owner of its bytes
// (one backend pays for the search — the result is deterministic, so
// running it N times buys nothing) and then syncs the winning profile
// onto every other healthy backend via their POST /profiles, so a
// subsequent profiled /encode can land anywhere on the ring. The
// owner's response relays unchanged; sync failures are logged and
// counted, never fatal — a backend that missed the sync answers 404
// profile_unknown and the client's install path recovers it.
func (l *lb) handleTrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	l.requests.Inc()
	l.reg.Counter("ninecdlb.trains").Inc()
	body, ok := l.readBody(w, r)
	if !ok {
		return
	}
	resp, backend, ok := l.forwardOrdered(w, r, hashring.Hash(body), body)
	if !ok {
		return
	}
	defer resp.Body.Close()

	// Relay needs the body regardless; a 200 train report also carries
	// the canonical profile to sync. Bounded read: a train report is
	// small, and relaying a truncated one would be worse than refusing.
	rbody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		http.Error(w, "reading train report", http.StatusBadGateway)
		return
	}
	if resp.StatusCode == http.StatusOK {
		var rep struct {
			Profile string `json:"profile"`
		}
		if json.Unmarshal(rbody, &rep) == nil && rep.Profile != "" {
			l.syncProfile(r, backend, []byte(rep.Profile))
		}
	}
	relayBytes(w, resp, backend, rbody)
}

// handleProfileInstall fans a canonical profile out to every healthy
// backend; the last backend's response relays (all should agree — the
// profile ID is a content address).
func (l *lb) handleProfileInstall(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	l.requests.Inc()
	body, ok := l.readBody(w, r)
	if !ok {
		return
	}
	healthy := l.ring.Healthy()
	if len(healthy) == 0 {
		l.noBackend.Inc()
		w.Header().Set("Retry-After", "2")
		http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
		return
	}
	var last *http.Response
	var lastBackend string
	for _, b := range healthy {
		resp, err := l.post(r, b+"/profiles", body)
		if err != nil {
			log.Printf("ninecd-lb: profile install on %s: %v", b, err)
			continue
		}
		if last != nil {
			io.Copy(io.Discard, io.LimitReader(last.Body, 4096))
			last.Body.Close()
		}
		last, lastBackend = resp, b
		// A backend rejecting the profile (4xx) is a verdict on the
		// bytes themselves — every backend would agree, so stop and
		// relay it rather than spraying a bad artifact further.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			break
		}
	}
	if last == nil {
		l.noBackend.Inc()
		w.Header().Set("Retry-After", "2")
		http.Error(w, "all backends unreachable", http.StatusBadGateway)
		return
	}
	relay(w, last, lastBackend)
}

// handleProfileGet asks healthy backends in order and relays the first
// hit; a miss everywhere relays the final 404.
func (l *lb) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	l.requests.Inc()
	healthy := l.ring.Healthy()
	if len(healthy) == 0 {
		l.noBackend.Inc()
		w.Header().Set("Retry-After", "2")
		http.Error(w, "no healthy backends", http.StatusServiceUnavailable)
		return
	}
	var last *http.Response
	var lastBackend string
	for _, b := range healthy {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b+r.URL.Path, nil)
		if err != nil {
			continue
		}
		resp, err := l.hc.Do(req)
		if err != nil {
			continue
		}
		if last != nil {
			io.Copy(io.Discard, io.LimitReader(last.Body, 4096))
			last.Body.Close()
		}
		last, lastBackend = resp, b
		if resp.StatusCode == http.StatusOK {
			break
		}
	}
	if last == nil {
		l.noBackend.Inc()
		w.Header().Set("Retry-After", "2")
		http.Error(w, "all backends unreachable", http.StatusBadGateway)
		return
	}
	relay(w, last, lastBackend)
}

// syncProfile installs canonical on every healthy backend except the
// one that already holds it.
func (l *lb) syncProfile(r *http.Request, trained string, canonical []byte) {
	for _, b := range l.ring.Healthy() {
		if b == trained {
			continue
		}
		resp, err := l.post(r, b+"/profiles", canonical)
		if err != nil {
			l.reg.Counter("ninecdlb.profile_sync_failures").Inc()
			log.Printf("ninecd-lb: profile sync to %s: %v", b, err)
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			l.reg.Counter("ninecdlb.profile_sync_failures").Inc()
			log.Printf("ninecd-lb: profile sync to %s: http %d", b, resp.StatusCode)
			continue
		}
		l.reg.Counter("ninecdlb.profile_syncs").Inc()
	}
}

// relayBytes is relay for a response whose body has already been read.
func relayBytes(w http.ResponseWriter, resp *http.Response, backend string, body []byte) {
	var connNamed map[string]bool
	for _, v := range resp.Header.Values("Connection") {
		for _, f := range strings.Split(v, ",") {
			if f = strings.TrimSpace(f); f != "" {
				if connNamed == nil {
					connNamed = make(map[string]bool)
				}
				connNamed[http.CanonicalHeaderKey(f)] = true
			}
		}
	}
	for k, vs := range resp.Header {
		if hopByHopHeaders[k] || connNamed[k] {
			continue
		}
		// The body was re-buffered, so the backend's framing headers no
		// longer describe what goes on the wire.
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Backend", backend)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, bytes.NewReader(body))
}
