package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/codecopt"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// errProfileUnknown is the classified miss of the profile store: the
// X-Codec-Profile (or /profiles/{id}) the caller named is not
// resident. 404, not 400 — the request is well-formed, the artifact
// just is not here; the client's move is to install the profile and
// retry.
var errProfileUnknown = errors.New("codec profile not resident (POST /profiles to install it)")

// trainOptions parses the /train query parameters onto search options
// and refuses a K or fill no profile can carry.
func trainOptions(r *http.Request) (codecopt.Options, error) {
	var opts codecopt.Options
	q := r.URL.Query()
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opts, fmt.Errorf("bad k %q: %w: %v", v, robust.ErrCorrupt, err)
		}
		opts.Ks = []int{n}
	}
	if v := q.Get("fill"); v != "" {
		opts.Fills = []codecopt.Fill{codecopt.Fill(v)}
	}
	return opts, opts.Validate()
}

// handleTrain accepts a 01X training corpus, computes its best 9C
// profile and installs it in the store. The response is the train
// report (profile ID, canonical encoding, tuned vs fixed bits and
// uplift), with the ID in X-Codec-Profile. The search runs inside the
// request: it holds its worker slot throughout and stops at the
// request deadline, which answers 503 and installs nothing. Progress
// shows as codecopt.* spans on the daemon's trace sink.
//
// Query parameters: k (restrict the block-size axis to one K) and fill
// (restrict the fill axis). Any other parameter is ignored.
func (s *server) handleTrain(w http.ResponseWriter, r *http.Request) error {
	opts, err := trainOptions(r)
	if err != nil {
		return err
	}
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer putBodyBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)); err != nil {
		return err
	}
	set, err := tcube.Read("corpus", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	if set == nil || set.Len() == 0 {
		return fmt.Errorf("empty training corpus: %w", robust.ErrCorrupt)
	}

	s.reg.Counter("ninecd.train.requests").Inc()
	rep, err := codecopt.Search(r.Context(), []*tcube.Set{set}, opts)
	if err != nil {
		s.reg.Counter("ninecd.train.failures").Inc()
		return err
	}
	s.profiles.Put(rep.Profile)
	// Basis points, so the integer gauge keeps two decimals of CR%.
	s.reg.Gauge("ninecd.train.last_uplift_bp").Set(int64(rep.UpliftPct * 100))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Codec-Profile", rep.ProfileID)
	return json.NewEncoder(w).Encode(rep)
}

// handleProfileInstall installs a profile from its canonical wire
// encoding (what GET /profiles/{id} emits and what a train report's
// "profile" field carries), responding with its content address. The
// fleet path: train once anywhere, install the resulting artifact on
// every backend.
func (s *server) handleProfileInstall(w http.ResponseWriter, r *http.Request) error {
	body, err := readBounded(w, r, 4096)
	if err != nil {
		return err
	}
	p, err := codecopt.ParseProfile(body)
	if err != nil {
		return err
	}
	id := s.profiles.Put(p)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Codec-Profile", id)
	return json.NewEncoder(w).Encode(map[string]string{"id": id})
}

// handleProfileGet serves a resident profile's canonical encoding.
func (s *server) handleProfileGet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	p, ok := s.profiles.Get(id)
	if !ok {
		return fmt.Errorf("profile %q: %w", id, errProfileUnknown)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Codec-Profile", id)
	_, err := w.Write(p.Canonical())
	return err
}

// readBounded reads a small control-plane body under its own cap.
func readBounded(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// resolveProfile maps an X-Codec-Profile header onto the resident
// profile; an empty header means the fixed code (nil profile).
func (s *server) resolveProfile(r *http.Request) (*codecopt.Profile, string, error) {
	id := r.Header.Get("X-Codec-Profile")
	if id == "" {
		return nil, "", nil
	}
	p, ok := s.profiles.Get(id)
	if !ok {
		return nil, "", fmt.Errorf("profile %q: %w", id, errProfileUnknown)
	}
	return &p, id, nil
}
