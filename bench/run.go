package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/batchenc"
)

// options are one invocation's settings.
type options struct {
	root    string
	work    string // scratch directory for binaries and access logs
	seed    int64
	seconds float64
	smoke   bool
	timed   bool   // run the untraced timed pass for the end-to-end metrics
	traced  bool   // run the traced pass for the per-layer metrics
	spans   string // NDJSON span output of the traced pass
}

// plan is a run's layout: a closed-loop warm-up, then rounds that each
// run an lo window, an hi window and a closed window. Interleaving the
// phases spreads each over the whole run, so a slow spell of the shared
// machine lands on every phase a little instead of on one phase whole.
// Every count and schedule is fixed by the seed and the run length, so
// request i is the same body on every run with the same seed.
type plan struct {
	warmOps int
	rounds  []round
}

type round struct {
	first     int // index of the round's first request
	lo, hi    []time.Duration
	closedOps int
}

func (r round) firstHi() int     { return r.first + len(r.lo) }
func (r round) firstClosed() int { return r.firstHi() + len(r.hi) }

// rounds is how many lo/hi/closed rounds a run interleaves.
const rounds = 8

// setupBoots is how many times a timed pass boots the daemons; setup_s
// is the median.
const setupBoots = 25

// makePlan gives lo 27/55 of the measured seconds, hi 8/55 and the
// closed phase about 15/55, as op counts at the frozen closed-loop rate
// (so a faster daemon finishes them sooner), after a warm-up of 5/55 of
// the seconds, at least 1 s. lo gets the most because p50_ms.lo is the
// gated latency and the noisiest gated metric; hi feeds only ungated
// latencies and queue waits, and 8/55 of 20 s still gives every
// workload over 1000 hi samples.
func makePlan(w *workload, seed int64, seconds float64, smoke bool) plan {
	p := plan{warmOps: int(math.Max(1, seconds*5/55) * w.closedRPS)}
	n, lo, hi, closed := rounds, seconds*27/55/rounds, seconds*8/55/rounds, seconds*15/55*w.closedRPS/rounds
	if smoke {
		p.warmOps, n, lo, hi, closed = 10, 1, 1, 1, 50
	}
	dLo, dHi := time.Duration(lo*float64(time.Second)), time.Duration(hi*float64(time.Second))
	next := p.warmOps
	for k := 0; k < n; k++ {
		r := round{
			first:     next,
			lo:        poisson(int64(mix(seed, 1<<50+uint64(k))>>1), w.rateLo, dLo),
			hi:        poisson(int64(mix(seed, 2<<50+uint64(k))>>1), w.rateHi, dHi),
			closedOps: int(closed),
		}
		next = r.firstClosed() + r.closedOps
		p.rounds = append(p.rounds, r)
	}
	return p
}

// pass is one boot of the workload's daemons and the windows run on it.
type pass struct {
	setups  []float64 // seconds from spawn to the last verified probe
	probes  []float64 // probeHost times, us: before each boot, after each window
	warm    []sample
	lo, hi  []sample // pooled over the rounds
	closed  []sample
	wall    time.Duration // summed over the closed windows
	ticks   int64         // daemon CPU ticks during the closed windows
	lag     []time.Duration
	rssKB   int64
	scrapes [][]map[string]float64 // after the warm-up and after the last round
	access  map[string]accessEvent
}

func (p *pass) measured() []sample {
	return append(append(append([]sample(nil), p.lo...), p.hi...), p.closed...)
}

// runner runs one workload.
type runner struct {
	opt  options
	w    *workload
	in   *inputs
	plan plan
	tr   *tracer
	path *path
}

func newRunner(opt options, w *workload) (*runner, error) {
	in, err := w.build(opt.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	r := &runner{opt: opt, w: w, in: in, plan: makePlan(w, opt.seed, opt.seconds, opt.smoke)}
	if opt.traced {
		r.tr = &tracer{}
	}
	if r.path, err = newPath(r.tr); err != nil {
		return nil, err
	}
	if err := checkItems(r.path, w.name, in.items); err != nil {
		return nil, fmt.Errorf("%s: set-up check: %w", w.name, err)
	}
	return r, nil
}

// setup boots the fleet reps times, timing each boot from spawn to the
// first verified response on every route the workload uses, and keeps
// the last fleet running.
func (r *runner) setup(ctx context.Context, p *pass, reps int, accessDir string) (*fleet, []float64, error) {
	var times []float64
	for k := 0; k < reps; k++ {
		p.probes = append(p.probes, probeHost())
		t := time.Now()
		f, err := startFleet(filepath.Join(r.opt.work, "bin"), r.w.lb, accessDir)
		if err != nil {
			return nil, nil, err
		}
		hc := &http.Client{Transport: &http.Transport{}}
		for j, probe := range r.in.probes {
			var sm sample
			post(ctx, hc, f.url, fmt.Sprintf("%s.setup.probe%d", r.w.name, j), probe, &sm)
			sm.req = probe
			if err := r.check(&sm, nil); err != nil || !sm.ok {
				f.stop()
				return nil, nil, fmt.Errorf("set-up probe %d: status %d %s %v", j, sm.status, sm.err, err)
			}
		}
		times = append(times, time.Since(t).Seconds())
		hc.CloseIdleConnections()
		if k < reps-1 {
			if err := f.stop(); err != nil {
				return nil, nil, err
			}
			continue
		}
		return f, times, nil
	}
	return nil, nil, fmt.Errorf("no set-up repetitions")
}

// runPass boots the daemons, warms them up and runs the rounds; with
// loOnly it runs only each round's lo window.
func (r *runner) runPass(ctx context.Context, traced, loOnly bool, reps int) (*pass, error) {
	p := &pass{}
	accessDir := ""
	if traced {
		accessDir = filepath.Join(r.opt.work, r.w.name)
		if err := os.MkdirAll(accessDir, 0o755); err != nil {
			return nil, err
		}
	}
	f, setups, err := r.setup(ctx, p, reps, accessDir)
	if err != nil {
		return nil, err
	}
	p.setups = setups
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()
	senders := make([]*sender, conns)
	for i := range senders {
		senders[i] = newSender(f.url, r.w.name, r.in.gen)
		defer senders[i].close()
	}
	scrape := func() error {
		if !traced {
			return nil
		}
		m, err := f.scrape(ctx)
		p.scrapes = append(p.scrapes, m)
		return err
	}

	p.warm, _ = runClosed(ctx, senders, "warm", 0, r.plan.warmOps)
	p.probes = append(p.probes, probeHost())
	if err := scrape(); err != nil {
		return nil, err
	}
	for _, rd := range r.plan.rounds {
		ss, lag := runOpen(ctx, senders, "lo", rd.first, rd.lo)
		p.lo, p.lag = append(p.lo, ss...), append(p.lag, lag...)
		p.probes = append(p.probes, probeHost())
		if loOnly {
			continue
		}
		ss, lag = runOpen(ctx, senders, "hi", rd.firstHi(), rd.hi)
		p.hi, p.lag = append(p.hi, ss...), append(p.lag, lag...)
		p.probes = append(p.probes, probeHost())
		t0, err := f.cpuTicks()
		if err != nil {
			return nil, err
		}
		ss, wall := runClosed(ctx, senders, "closed", rd.firstClosed(), rd.closedOps)
		t1, err := f.cpuTicks()
		if err != nil {
			return nil, err
		}
		p.closed, p.wall, p.ticks = append(p.closed, ss...), p.wall+wall, p.ticks+t1-t0
		p.probes = append(p.probes, probeHost())
	}
	if err := scrape(); err != nil {
		return nil, err
	}
	if p.rssKB, err = f.peakRSSKB(); err != nil {
		return nil, err
	}
	stopped = true
	if err := f.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemons: %w", err)
	}
	if traced {
		if p.access, err = readAccessLogs(f.logs); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// check verifies one response against the reference: an /encode
// container byte for byte and its X-Compressed-Bits, an /decode text by
// its sha256. enc is needed only for unique encode bodies.
func (r *runner) check(s *sample, enc *batchenc.Encoder) error {
	if s.err != "" || s.status/100 != 2 {
		return nil // a failure, but not a wrong answer
	}
	it := r.in.items[s.req.item]
	switch {
	case s.req.decode:
		s.ok = s.sum == it.textSum
	case s.req.unique:
		set, err := it.edit.variantSet(it.set, s.req.edit)
		if err != nil {
			return err
		}
		res, err := reference(enc, set)
		if err != nil {
			return err
		}
		s.ok = s.sum == sha256.Sum256(res.Container) && s.compBits == res.CompressedBits
	default:
		s.ok = s.sum == it.contSum && s.compBits == it.compBits
	}
	if !s.ok {
		kind := "encode"
		if s.req.decode {
			kind = "decode"
		}
		return fmt.Errorf("request %d (%s): response differs from the reference", s.i, kind)
	}
	return nil
}

// verify checks every sample of the given slices after the pass, off
// the clock, on conns goroutines. It returns the wrong answers.
func (r *runner) verify(groups ...[]sample) []error {
	var all []*sample
	for _, g := range groups {
		for i := range g {
			all = append(all, &g[i])
		}
	}
	enc := batchenc.New(batchenc.Config{})
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(all); i += conns {
				if err := r.check(all[i], enc); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return errs
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a percentile
}

// result is one workload's outcome.
type result struct {
	workload  string
	metrics   map[string]value
	attempted int
	failed    int
	wrong     []error
	lagP99    float64 // ms
	spans     []span  // the traced run's, for the NDJSON output
}

// run executes one workload in the configured mode.
func run(ctx context.Context, opt options, w *workload) (*result, error) {
	r, err := newRunner(opt, w)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, metrics: map[string]value{}}
	var passes []*pass
	var timed, base, traced *pass
	if opt.timed {
		reps := setupBoots
		if opt.smoke {
			reps = 1
		}
		if timed, err = r.runPass(ctx, false, false, reps); err != nil {
			return nil, fmt.Errorf("%s: timed pass: %w", w.name, err)
		}
		passes = append(passes, timed)
		base = timed
	}
	if opt.traced {
		if base == nil {
			// Only the lo phase is needed untraced, for trace.overhead_pct.
			if base, err = r.runPass(ctx, false, true, 1); err != nil {
				return nil, fmt.Errorf("%s: untraced lo pass: %w", w.name, err)
			}
			passes = append(passes, base)
		}
		if traced, err = r.runPass(ctx, true, false, 1); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		passes = append(passes, traced)
	}
	var lags []float64
	for _, p := range passes {
		res.wrong = append(res.wrong, r.verify(p.warm, p.lo, p.hi, p.closed)...)
		for _, ss := range [][]sample{p.warm, p.lo, p.hi, p.closed} {
			for i := range ss {
				res.attempted++
				if !ss[i].ok {
					res.failed++
				}
			}
		}
		for _, l := range p.lag {
			lags = append(lags, float64(l)/1e6)
		}
	}
	res.lagP99 = nearestRank(lags, 99)
	if timed != nil {
		r.endToEnd(res, timed)
	}
	if traced != nil {
		res.metrics["loadgen.lag_p99_ms"] = value{Value: res.lagP99, Unit: "ms", N: len(lags)}
		res.metrics["loadgen.fail_pct"] = value{Value: 100 * float64(res.failed) / float64(res.attempted), Unit: "%", N: res.attempted}
		if err := r.layerMetrics(res, base.lo, traced); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	for name, v := range res.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s has no measurement", w.name, name)
		}
	}
	return res, nil
}

// endToEnd computes the user-visible metrics from the untraced pass,
// with times and rates at the reference machine's speed (calib.go).
func (r *runner) endToEnd(res *result, p *pass) {
	m := res.metrics
	slow := median(p.probes) / calibRefUS
	m["host.slowdown"] = value{Value: slow, Unit: "ratio", N: len(p.probes)}
	m["setup_s"] = value{Value: median(p.setups) / slow, Unit: "s", N: len(p.setups)}
	for _, ph := range []struct {
		name string
		ss   []sample
	}{{"lo", p.lo}, {"hi", p.hi}} {
		lat := latenciesMS(ph.ss)
		m["p50_ms."+ph.name] = value{Value: median(lat) / slow, Unit: "ms", N: len(lat)}
		m["p99_ms."+ph.name] = value{Value: nearestRank(lat, 99) / slow, Unit: "ms", N: len(lat)}
	}
	ok := 0
	for _, s := range p.closed {
		if s.ok {
			ok++
		}
	}
	m["goodput_rps"] = value{Value: float64(ok) / p.wall.Seconds() * slow, Unit: "req/s", N: ok}
	// A clock tick is 10 ms, so ticks*1e4 is microseconds.
	m["cpu_us_per_op"] = value{Value: float64(p.ticks) * 1e4 / math.Max(1, float64(ok)) / slow, Unit: "us", N: ok}
	m["rss_mb"] = value{Value: float64(p.rssKB) / 1024, Unit: "MiB"}
	var comp, orig int64
	for _, s := range p.measured() {
		if !s.ok {
			continue
		}
		it := r.in.items[s.req.item]
		bits := s.compBits
		if s.req.decode {
			bits = it.compBits
		}
		comp += int64(bits)
		orig += int64(it.set.Bits())
	}
	m["cr_pct"] = value{Value: 100 * (1 - float64(comp)/float64(orig)), Unit: "%"}
}

// layerMetrics computes the per-layer metrics: the in-process ledger
// replays the lo phase's bodies; the traced pass's access logs and
// /metrics scrapes give the daemon-side numbers.
func (r *runner) layerMetrics(res *result, untracedLo []sample, p *pass) error {
	m := res.metrics
	wl := r.w.name
	var encBodies [][]byte
	for _, it := range r.in.items {
		encBodies = append(encBodies, it.text)
	}
	for i := range p.lo {
		req, err := r.in.gen(p.lo[i].i, nil)
		if err != nil {
			return err
		}
		trace := fmt.Sprintf("%s.lo.%d", wl, p.lo[i].i)
		if req.decode {
			_, err = r.path.decode(trace, req.body)
		} else {
			encBodies = append(encBodies, req.body)
			_, err = r.path.encode(trace, req.body)
		}
		if err != nil {
			return fmt.Errorf("ledger replay %s: %w", trace, err)
		}
	}
	st := summarize(r.tr.spans, wl+".lo.", r.path.encBits)
	for _, name := range append(append([]string(nil), encodeStages...), decodeStages...) {
		m[name+".us"] = value{Value: st.meanUS[name], Unit: "us"}
	}
	m["core.encode.mbps"] = value{Value: st.encodeMBps, Unit: "MB/s"}
	rd, wr, err := allocKB(encBodies, 32)
	if err != nil {
		return err
	}
	m["tcube.read.alloc_kb"] = value{Value: rd, Unit: "KiB"}
	m["container.write_v4.alloc_kb"] = value{Value: wr, Unit: "KiB"}

	// Daemon-side times, joined to the client's samples on X-Request-ID.
	var queueHi, handlerLo, httpLo []float64
	for i := range p.hi {
		if e, ok := p.access[fmt.Sprintf("%s.hi.%d", wl, p.hi[i].i)]; ok {
			queueHi = append(queueHi, float64(e.QueueNs)/1e3)
		}
	}
	for i := range p.lo {
		s := &p.lo[i]
		if e, ok := p.access[fmt.Sprintf("%s.lo.%d", wl, s.i)]; ok && s.ok {
			handlerLo = append(handlerLo, float64(e.HandlerNs-e.QueueNs)/1e3)
			httpLo = append(httpLo, float64(s.done-s.sent-time.Duration(e.HandlerNs))/1e3)
		}
	}
	m["ninecd.queue_wait.p50_us"] = value{Value: median(queueHi), Unit: "us", N: len(queueHi)}
	m["ninecd.queue_wait.p99_us"] = value{Value: nearestRank(queueHi, 99), Unit: "us", N: len(queueHi)}
	m["ninecd.handler.p50_us"] = value{Value: median(handlerLo), Unit: "us", N: len(handlerLo)}
	m["ninecd.handler.p99_us"] = value{Value: nearestRank(handlerLo, 99), Unit: "us", N: len(handlerLo)}
	m["ninecd.http.p50_us"] = value{Value: median(httpLo), Unit: "us", N: len(httpLo)}
	stages := median(st.perRequest)
	m["ledger.stages.p50_us"] = value{Value: stages, Unit: "us", N: len(st.perRequest)}
	m["ledger.gap_pct"] = value{Value: 100 * math.Abs(stages-median(handlerLo)) / median(handlerLo), Unit: "%"}

	// /metrics deltas over the measured phases (after warm to after closed).
	first, last := p.scrapes[0], p.scrapes[len(p.scrapes)-1]
	delta := func(match func(string) bool) float64 {
		var d float64
		for b := range last {
			for name, v := range last[b] {
				if match(name) {
					d += v - first[b][name]
				}
			}
		}
		return d
	}
	is := func(name string) func(string) bool { return func(s string) bool { return s == name } }
	rejected := delta(func(s string) bool {
		return strings.HasPrefix(s, "ninecd_") && strings.HasSuffix(s, "_total") &&
			(strings.HasSuffix(s, "_rejected_total") || strings.Contains(s, "_shed_"))
	})
	m["ninecd.rejected"] = value{Value: rejected, Unit: "count"}
	m["ninecd.prio_lane.ratio"] = value{Value: ratio(delta(is("ninecd_decode_prio_lane_total")), delta(is("ninecd_http_decode_requests_total"))), Unit: "ratio"}
	hits, coal := delta(is("ninecd_cache_hit_total")), delta(is("ninecd_cache_coalesced_total"))
	m["cachex.hit_ratio"] = value{Value: ratio(hits, hits+coal+delta(is("ninecd_cache_miss_total"))), Unit: "ratio"}
	m["cachex.coalesced"] = value{Value: coal, Unit: "count"}
	ops := len(p.lo) + len(p.hi) + len(p.closed)
	m["ninecd.gc_per_kop"] = value{Value: ratio(delta(is("runtime_num_gc")), float64(ops)/1000), Unit: "1/kop", N: ops}
	var gcPPM float64
	for _, b := range last {
		gcPPM += b["runtime_gc_cpu_fraction_ppm"] / float64(len(last))
	}
	m["ninecd.gc_cpu_pct"] = value{Value: gcPPM / 1e4, Unit: "%"}
	m["loadgen.samples.lo"] = value{Value: float64(len(p.lo)), Unit: "count"}
	m["loadgen.samples.hi"] = value{Value: float64(len(p.hi)), Unit: "count"}
	base := median(latenciesMS(untracedLo))
	m["trace.overhead_pct"] = value{Value: 100 * (median(latenciesMS(p.lo)) - base) / base, Unit: "%"}

	r.addHTTPSpans(p)
	res.spans = r.tr.spans
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addHTTPSpans records each traced request as a client span with the
// daemon's queue wait and handler as children, from the access log.
func (r *runner) addHTTPSpans(p *pass) {
	for _, ph := range []struct {
		name string
		ss   []sample
	}{{"warm", p.warm}, {"lo", p.lo}, {"hi", p.hi}, {"closed", p.closed}} {
		phase, ss := ph.name, ph.ss
		for i := range ss {
			s := &ss[i]
			trace := fmt.Sprintf("%s.%s.%d", r.w.name, phase, s.i)
			root := r.tr.add(trace, 0, "client", s.start.Add(s.sent), s.done-s.sent)
			if e, ok := p.access[trace]; ok {
				start := time.Unix(0, e.Time-e.HandlerNs)
				r.tr.add(trace, root, "ninecd.queue", start, time.Duration(e.QueueNs))
				r.tr.add(trace, root, "ninecd.handler", start.Add(time.Duration(e.QueueNs)), time.Duration(e.HandlerNs-e.QueueNs))
			}
		}
	}
}
