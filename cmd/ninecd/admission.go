package main

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Adaptive admission: the daemon sheds load before it collapses rather
// than queueing requests it cannot serve in time. Two pressure signals
// gate admission ahead of the worker pool:
//
//   - queue depth: when more requests are already waiting than the pool
//     can plausibly clear, new arrivals get an immediate 429 instead of
//     burning their queue wait to learn the same thing;
//   - memory: when the heap exceeds -shed-mem, large work is refused
//     until GC catches up (0 disables the check).
//
// Every 429 carries a Retry-After derived from live queue depth and the
// SLO burn state — an honest estimate, not a constant — clamped to
// [1,30] seconds. Small /decode requests ride a separate priority lane
// (-prio-slots extra workers) so interactive decodes are not starved
// behind huge /encode jobs occupying the main pool.

// StartDrain flips the daemon into draining mode: /readyz reports 503
// immediately so load balancers stop routing here, while in-flight
// requests keep running. serve() calls this the moment shutdown begins,
// before http.Server.Shutdown closes the listener.
func (s *server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.reg.Counter("ninecd.drain.started").Inc()
	}
}

// isPriority reports whether the request qualifies for the priority
// lane: a /decode whose declared body fits under -prio-bytes. Unknown
// lengths (chunked uploads) do not qualify — the lane is reserved for
// work that is provably small before any byte is read.
func (s *server) isPriority(name string, r *http.Request) bool {
	return name == "decode" && r.ContentLength >= 0 && r.ContentLength <= s.cfg.PrioBytes
}

// shedReason returns a non-empty reason when the request should be
// refused before queueing. Priority-lane requests skip the queue-depth
// check (they have their own slots) but not the memory check — memory
// pressure is global.
func (s *server) shedReason(name string, r *http.Request) string {
	if s.queued.Value() >= int64(s.cfg.ShedQueue) && !s.isPriority(name, r) {
		return "queue"
	}
	if s.cfg.ShedMemBytes > 0 {
		// Sample is internally rate-limited, so hot-path calls are a
		// cheap atomic check most of the time.
		s.rc.Sample()
		if s.heap.Value() > s.cfg.ShedMemBytes {
			return "memory"
		}
	}
	return ""
}

// retryAfterSecs estimates when a retry has a real chance of being
// admitted: one second plus how many pool-drains the current queue
// represents, doubled while the SLO window is burning (the daemon is
// demonstrably struggling), clamped to [1,30].
func (s *server) retryAfterSecs() int {
	secs := 1 + int(s.queued.Value())/s.cfg.Workers
	if !s.slo.Status().Ready {
		secs *= 2
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// reject writes the shed/saturation 429 with the dynamic Retry-After
// and an error class for client taxonomies.
func (s *server) reject(w http.ResponseWriter, msg, class string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	w.Header().Set("X-Error-Class", class)
	http.Error(w, msg, http.StatusTooManyRequests)
}

// admit runs the admission pipeline for one request: shed checks first,
// then a bounded wait for a worker slot — the main pool for everyone,
// plus the priority lane for qualifying requests (a send on the nil
// channel never fires, so non-priority requests only see the pool).
// ok=false means the response has already been written; otherwise the
// caller must invoke release when the request finishes. prioLane is
// the route's ninecd.<name>.prio_lane counter, resolved once by guard.
func (s *server) admit(name string, prioLane *obs.Counter, w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if reason := s.shedReason(name, r); reason != "" {
		s.reg.Counter("ninecd." + name + ".shed." + reason).Inc()
		s.reject(w, "overloaded, shedding ("+reason+")", "shed_"+reason)
		return nil, false
	}

	s.queued.Add(1)
	defer s.queued.Add(-1)
	enqueued := time.Now()
	wait := time.NewTimer(s.cfg.QueueWait)
	defer wait.Stop()
	var prio chan struct{}
	if s.isPriority(name, r) {
		prio = s.prio
	}
	select {
	case s.sem <- struct{}{}:
		if info := reqInfoFrom(r.Context()); info != nil {
			info.queueWait = time.Since(enqueued)
		}
		return func() { <-s.sem }, true
	case prio <- struct{}{}:
		prioLane.Inc()
		if info := reqInfoFrom(r.Context()); info != nil {
			info.queueWait = time.Since(enqueued)
		}
		return func() { <-s.prio }, true
	case <-wait.C:
		s.reg.Counter("ninecd." + name + ".rejected").Inc()
		s.reject(w, "worker pool saturated", "saturated")
		return nil, false
	case <-r.Context().Done():
		// The client abandoned the request while it was queued. That is
		// not pool pressure: no 429, no Retry-After (nobody is listening
		// for the body anyway), and its own counter so saturation
		// dashboards stay honest.
		s.reg.Counter("ninecd." + name + ".client_gone").Inc()
		http.Error(w, "client closed request while queued", http.StatusRequestTimeout)
		return nil, false
	}
}
