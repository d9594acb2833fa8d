package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/codecopt"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// errProfileUnknown is the classified miss of the profile store: the
// X-Codec-Profile (or /profiles/{id}) the caller named is not
// resident. 404, not 400 — the request is well-formed, the artifact
// just is not here; the client's move is to install the profile and
// retry.
var errProfileUnknown = errors.New("codec profile not resident (POST /profiles to install it)")

// trainJob is one asynchronous /train?async=1 search.
type trainJob struct {
	Status string           `json:"status"` // running | done | failed
	Error  string           `json:"error,omitempty"`
	Report *codecopt.Report `json:"report,omitempty"`
}

// trainJobs is the bounded async-train registry. Jobs are cheap
// (a status string and a small report), so the bound is a count.
type trainJobs struct {
	mu      sync.Mutex
	jobs    map[string]*trainJob
	order   []string // insertion order, for eviction
	running int
}

// maxTrainJobs bounds concurrent background searches; maxJobHistory
// bounds retained finished jobs.
const (
	maxTrainJobs  = 4
	maxJobHistory = 64
)

// start registers a new running job, refusing when the concurrent
// budget is spent.
func (t *trainJobs) start(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running >= maxTrainJobs {
		return false
	}
	if t.jobs == nil {
		t.jobs = make(map[string]*trainJob)
	}
	t.jobs[id] = &trainJob{Status: "running"}
	t.order = append(t.order, id)
	t.running++
	for len(t.order) > maxJobHistory {
		victim := t.order[0]
		if t.jobs[victim].Status == "running" {
			break // never evict a live job; the running cap bounds these
		}
		t.order = t.order[1:]
		delete(t.jobs, victim)
	}
	return true
}

// finish records a job's outcome.
func (t *trainJobs) finish(id string, rep *codecopt.Report, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.jobs[id]
	if j == nil {
		return
	}
	t.running--
	if err != nil {
		j.Status, j.Error = "failed", err.Error()
		return
	}
	j.Status, j.Report = "done", rep
}

// get returns a snapshot of the job.
func (t *trainJobs) get(id string) (trainJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return trainJob{}, false
	}
	return *j, true
}

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
	if q.Get("dict") == "0" {
		opts.SkipDictionary = true
	}
	return opts, opts.Validate()
}

// handleTrain accepts a 01X training corpus and computes its best 9C
// profile. Synchronous by default: the response is the full train
// report (profile ID, canonical encoding, tuned vs fixed vs dictionary
// bits) and the winning profile is already installed in the store.
// With async=1 the training runs in the background — the 202 response
// carries a job ID to poll at /train/jobs/{id} — with progress
// observable as codecopt.* spans on the daemon's trace sink either way.
//
// Query parameters: k (restrict the block-size axis to one K), fill
// (restrict the fill axis), dict=0 (skip the dictionary baseline),
// async=1 (background job). Any other parameter is ignored.
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
	corpus := []*tcube.Set{set}

	if r.URL.Query().Get("async") == "1" {
		id := obs.NewTraceID()
		if !s.trains.start(id) {
			w.Header().Set("Retry-After", "5")
			http.Error(w, "train queue full", http.StatusTooManyRequests)
			return nil
		}
		go func() {
			defer func() {
				if v := recover(); v != nil {
					s.reg.Counter("ninecd.train.panics").Inc()
					s.trains.finish(id, nil, fmt.Errorf("train panicked: %v", v))
				}
			}()
			rep, err := s.runTrain(corpus, opts)
			s.trains.finish(id, rep, err)
		}()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", "/train/jobs/"+id)
		w.WriteHeader(http.StatusAccepted)
		return json.NewEncoder(w).Encode(map[string]string{"job": id, "status": "running"})
	}

	rep, err := s.runTrain(corpus, opts)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Codec-Profile", rep.ProfileID)
	return json.NewEncoder(w).Encode(rep)
}

// runTrain is the shared search-and-install kernel of both train modes.
func (s *server) runTrain(corpus []*tcube.Set, opts codecopt.Options) (*codecopt.Report, error) {
	s.reg.Counter("ninecd.train.requests").Inc()
	rep, err := codecopt.Search(corpus, opts)
	if err != nil {
		s.reg.Counter("ninecd.train.failures").Inc()
		return nil, err
	}
	s.profiles.Put(rep.Profile)
	// Basis points, so the integer gauge keeps two decimals of CR%.
	s.reg.Gauge("ninecd.train.last_uplift_bp").Set(int64(rep.UpliftPct * 100))
	return rep, nil
}

// handleTrainJob reports one async train job's status.
func (s *server) handleTrainJob(w http.ResponseWriter, r *http.Request) error {
	j, ok := s.trains.get(r.PathValue("id"))
	if !ok {
		return fmt.Errorf("train job %q: %w", r.PathValue("id"), errProfileUnknown)
	}
	w.Header().Set("Content-Type", "application/json")
	return json.NewEncoder(w).Encode(j)
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
