package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDrainFlipsReadyz: StartDrain turns /readyz into an immediate 503
// while /healthz keeps reporting liveness — the load balancer stops
// routing, the process is still alive to finish in-flight work.
func TestDrainFlipsReadyz(t *testing.T) {
	ts, s := newTestServer(t, config{})
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d %s", resp.StatusCode, body)
	}

	s.StartDrain()
	s.StartDrain() // idempotent

	resp, body = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz drain body %q", body)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", resp.StatusCode)
	}
	if got := s.reg.Counter("ninecd.drain.started").Value(); got != 1 {
		t.Fatalf("drain.started = %d, want 1 (idempotent)", got)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// drainRecorder wraps the blocking handler with a StartDrain hook so
// the test can observe exactly when serve() flips readiness.
type drainRecorder struct {
	*blockingHandler
	drained chan struct{}
}

func (d *drainRecorder) StartDrain() { close(d.drained) }

// TestServeCallsStartDrainBeforeShutdown: serve() must invoke
// StartDrain the moment its context cancels — while in-flight requests
// are still running — not after Shutdown returns.
func TestServeCallsStartDrainBeforeShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &drainRecorder{
		blockingHandler: &blockingHandler{started: make(chan struct{}, 1), release: make(chan struct{})},
		drained:         make(chan struct{}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(ctx, ln, h, 5*time.Second) }()

	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-h.started
	cancel()
	select {
	case <-h.drained:
		// StartDrain fired while the request is still blocked in the
		// handler: readiness flipped before the drain completed.
	case <-time.After(2 * time.Second):
		t.Fatal("serve never called StartDrain after ctx cancel")
	}
	select {
	case <-reqDone:
		t.Fatal("in-flight request finished before StartDrain was observed")
	default:
	}
	close(h.release)
	<-reqDone
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestRetryAfterDynamic: the 429 Retry-After is an integer derived from
// queue depth, clamped to [1,30] — not the old hardcoded "1".
func TestRetryAfterDynamic(t *testing.T) {
	ts, s := newTestServer(t, config{Workers: 1, QueueWait: 10 * time.Millisecond})

	if got := s.retryAfterSecs(); got != 1 {
		t.Fatalf("idle retryAfterSecs = %d, want 1", got)
	}
	s.queued.Add(10)
	if got := s.retryAfterSecs(); got != 11 {
		t.Fatalf("retryAfterSecs with 10 queued on 1 worker = %d, want 11", got)
	}
	s.queued.Add(1000)
	if got := s.retryAfterSecs(); got != 30 {
		t.Fatalf("retryAfterSecs clamp = %d, want 30", got)
	}
	s.queued.Set(0)

	// End to end: a saturated pool's 429 carries a parseable integer.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	resp, _ := post(t, ts.URL+"/encode", []byte("0101\n"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated pool: %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 1 || secs > 30 {
		t.Fatalf("Retry-After %d outside [1,30]", secs)
	}
}

// TestQueueShed: above -shed-queue waiting requests, new arrivals are
// refused immediately — no queue wait burned — with the shed class and
// counter.
func TestQueueShed(t *testing.T) {
	ts, s := newTestServer(t, config{Workers: 1, ShedQueue: 4, QueueWait: 10 * time.Second})
	s.queued.Set(4) // simulate a full queue without racing goroutines
	defer s.queued.Set(0)

	start := time.Now()
	resp, _ := post(t, ts.URL+"/encode", []byte("0101\n"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed: %d, want 429", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed took %v; must reject immediately, not queue", elapsed)
	}
	if got := resp.Header.Get("X-Error-Class"); got != "shed_queue" {
		t.Fatalf("shed class %q", got)
	}
	if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
		t.Fatalf("shed Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}
	if got := s.reg.Counter("ninecd.encode.shed.queue").Value(); got != 1 {
		t.Fatalf("shed.queue counter = %d", got)
	}
}

// TestPriorityLane: with every main worker slot held by (notionally
// huge) encodes, a small decode still serves through the priority lane
// instead of starving, and a queue-shed front door lets it through.
func TestPriorityLane(t *testing.T) {
	ts, s := newTestServer(t, config{Workers: 1, ShedQueue: 1, QueueWait: 10 * time.Second})

	// A container to decode, produced before the pool is saturated.
	resp, cont := post(t, ts.URL+"/encode?name=prio", []byte(sampleText(4, 16, 9)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("setup encode: %d", resp.StatusCode)
	}
	if len(cont) > prioBytes {
		t.Fatalf("test container %d bytes exceeds prioBytes %d", len(cont), prioBytes)
	}

	s.sem <- struct{}{} // the only main worker is busy
	defer func() { <-s.sem }()
	s.queued.Set(1) // and the queue is at the shed threshold
	defer s.queued.Set(0)

	done := make(chan struct{})
	go func() { // a shed watchdog would hang here if the lane failed
		defer close(done)
		resp, body := post(t, ts.URL+"/decode", cont)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("priority decode: %d %s", resp.StatusCode, body)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("small decode starved behind a saturated pool")
	}
	if got := s.reg.Counter("ninecd.decode.prio_lane").Value(); got != 1 {
		t.Fatalf("prio_lane counter = %d, want 1", got)
	}

	// A non-priority request in the same state is shed, proving the
	// lane is what admitted the decode.
	resp, _ = post(t, ts.URL+"/encode", []byte("0101\n"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("encode under saturation: %d, want 429", resp.StatusCode)
	}
}

// TestPriorityRequiresKnownLength: a chunked decode (unknown
// ContentLength) does not qualify for the lane, and a known one
// qualifies up to 64 KiB.
func TestPriorityRequiresKnownLength(t *testing.T) {
	r, _ := http.NewRequest(http.MethodPost, "/decode", io.NopCloser(bytes.NewReader([]byte("x"))))
	r.ContentLength = -1
	if isPriority("decode", r) {
		t.Fatal("unknown-length decode qualified for the priority lane")
	}
	r.ContentLength = 10
	if !isPriority("decode", r) {
		t.Fatal("small decode did not qualify")
	}
	if isPriority("encode", r) {
		t.Fatal("encode qualified for the decode priority lane")
	}
	r.ContentLength = 64 << 10
	if !isPriority("decode", r) {
		t.Fatal("a 64 KiB decode did not qualify")
	}
	r.ContentLength = 64<<10 + 1
	if isPriority("decode", r) {
		t.Fatal("oversized decode qualified")
	}
}

// TestPriorityLaneSize: the lane has max(1, workers/4) slots.
func TestPriorityLaneSize(t *testing.T) {
	for workers, want := range map[int]int{1: 1, 3: 1, 4: 1, 8: 2, 13: 3} {
		s := newServer(config{Workers: workers}, obs.NewRegistry())
		if got := cap(s.prio); got != want {
			t.Errorf("workers=%d: %d priority slots, want %d", workers, got, want)
		}
	}
}
