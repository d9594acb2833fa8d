package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// conns is the number of load-generating goroutines, each with one
// keep-alive connection: nproc on the 2-vCPU machine the rates were
// frozen on, and fixed so that every machine sends the same way.
const conns = 2

// requestTimeout bounds one request. A request that fails for any
// reason is charged this latency, so it misses every latency limit.
const requestTimeout = 20 * time.Second

// sample is one request's outcome.
type sample struct {
	i        int
	start    time.Time     // start of the sample's window; the durations below count from it
	sched    time.Duration // due time; the send time in a closed loop
	sent     time.Duration
	done     time.Duration
	status   int
	err      string // transport error or timeout
	sum      [32]byte
	compBits int // X-Compressed-Bits of an /encode response
	req      request
	ok       bool // set by verify: 2xx and byte-identical to the reference
}

func (s *sample) latency() time.Duration {
	if !s.ok {
		return requestTimeout
	}
	return s.done - s.sched
}

// sender is one load-generating goroutine's connection and buffers.
type sender struct {
	hc   *http.Client
	base string
	wl   string
	gen  func(int, []byte) (request, error)
	buf  []byte
}

func newSender(base, wl string, gen func(int, []byte) (request, error)) *sender {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &sender{hc: &http.Client{Transport: tr}, base: base, wl: wl, gen: gen}
}

func (s *sender) close() { s.hc.CloseIdleConnections() }

// do sends request i and records its outcome in sm; start is the
// window start the sample's times are measured from.
func (s *sender) do(ctx context.Context, phase string, i int, start time.Time, sm *sample) {
	sm.i, sm.start = i, start
	req, err := s.gen(i, s.buf)
	if err != nil {
		sm.err = err.Error()
		return
	}
	s.buf = req.body[:0]
	sm.req = req
	sm.req.body = nil // the buffer is reused; verify regenerates what it needs
	sm.sent = time.Since(start)
	post(ctx, s.hc, s.base, fmt.Sprintf("%s.%s.%d", s.wl, phase, i), req, sm)
	sm.done = time.Since(start)
}

// post sends one request and hashes the response body as it arrives.
func post(ctx context.Context, hc *http.Client, base, id string, req request, sm *sample) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	route := "/encode"
	if req.decode {
		route = "/decode"
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+route, bytes.NewReader(req.body))
	if err != nil {
		sm.err = err.Error()
		return
	}
	hr.Header.Set("Content-Type", "application/octet-stream")
	hr.Header.Set("X-Request-ID", id)
	resp, err := hc.Do(hr)
	if err != nil {
		sm.err = err.Error()
		return
	}
	defer resp.Body.Close()
	sm.status = resp.StatusCode
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		sm.err = err.Error()
		return
	}
	h.Sum(sm.sum[:0])
	if !req.decode {
		sm.compBits, _ = strconv.Atoi(resp.Header.Get("X-Compressed-Bits"))
	}
}

// poisson is an open-loop arrival schedule: exponential gaps at rate
// per second, up to dur, fixed by the seed.
func poisson(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*1e9))
	}
	return out
}

// runOpen sends request first+k at sched[k] whatever the state of
// earlier requests. A request due while both connections are busy waits
// for one, and that wait counts in its latency. It returns the samples
// and the dispatcher's lateness against the schedule.
func runOpen(ctx context.Context, senders []*sender, phase string, first int, sched []time.Duration) ([]sample, []time.Duration) {
	samples := make([]sample, len(sched))
	queue := make(chan int, len(sched)) // sized to the sends: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for k := range queue {
				samples[k].sched = sched[k]
				s.do(ctx, phase, first+k, start, &samples[k])
			}
		}(s)
	}
	lagc := make(chan []time.Duration, 1)
	go func() {
		// The runtime's timers wake up to a millisecond late on an idle
		// process (its poller sleeps in whole milliseconds), which alone
		// would eat half the lateness budget. So the dispatcher sleeps in
		// nanosleep on a locked thread, raw so that it keeps its P and
		// needs none to resume, and the thread runs SCHED_FIFO so the busy
		// daemons cannot delay its wake-ups. Without the privilege it runs
		// at the default policy. The policy is reset before the thread
		// returns to the pool, and the thread must outlive this goroutine:
		// a daemon started from it would get its parent-death signal if it
		// exited.
		runtime.LockOSThread()
		tid := uintptr(syscall.Gettid())
		setPolicy(tid, schedFIFO, 1)
		defer func() {
			setPolicy(tid, schedOther, 0)
			runtime.UnlockOSThread()
		}()
		lag := make([]time.Duration, 0, len(sched))
		for k, at := range sched {
			// With slack to spare, wait on the runtime's timer first: that
			// yields the P, so the scheduler never preempts a dispatcher
			// that has looked busy for 10 ms and hands it back late.
			if d := at - time.Since(start) - yieldMargin; d > 0 {
				time.Sleep(d)
			}
			for d := at - time.Since(start); d > 0 && ctx.Err() == nil; d = at - time.Since(start) {
				ts := syscall.NsecToTimespec(int64(min(d, 5*time.Millisecond)))
				syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
			}
			if ctx.Err() != nil {
				break
			}
			lag = append(lag, time.Since(start)-at)
			queue <- k
		}
		close(queue)
		lagc <- lag
	}()
	wg.Wait()
	lag := <-lagc
	return samples[:len(lag)], lag
}

// yieldMargin is how far ahead of a due time the dispatcher stops
// trusting the runtime's timer, which can wake a millisecond late.
const yieldMargin = 1500 * time.Microsecond

// Scheduling policies of sched_setscheduler(2).
const (
	schedOther = 0
	schedFIFO  = 1
)

// setPolicy sets a thread's scheduling policy and priority; it fails
// without the privilege, which leaves the thread as it was.
func setPolicy(tid uintptr, policy, prio int32) {
	param := prio
	syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, tid, uintptr(policy), uintptr(unsafe.Pointer(&param)))
}

// runClosed has every sender send its next request as soon as the
// previous one completes, until ops requests have been sent. It returns
// the samples and the wall time from the first send to the last reply.
func runClosed(ctx context.Context, senders []*sender, phase string, first, ops int) ([]sample, time.Duration) {
	samples := make([]sample, ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= ops || ctx.Err() != nil {
					return
				}
				samples[k].sched = time.Since(start)
				s.do(ctx, phase, first+k, start, &samples[k])
			}
		}(s)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// nearestRank is the p-th percentile by the nearest-rank method: the
// smallest value with at least p% of all values at or below it.
func nearestRank(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

func median(vs []float64) float64 { return nearestRank(vs, 50) }

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = float64(ss[i].latency()) / 1e6
	}
	return out
}
