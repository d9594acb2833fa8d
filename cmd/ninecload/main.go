// Command ninecload is the SLO harness for ninecd: it replays a mixed
// encode/decode workload against a live daemon — optionally through
// the seeded chaos proxy — under a seeded retry loop, then asserts
// service-level objectives against both its own client-observed
// numbers and the daemon's /metrics. It has two roles, and the report
// is the same indented JSON in both:
//
//	ninecload -addr HOST -chaos-reset 0.05 \
//	          -chaos-latency 5ms -chaos-slowloris 0.05 # chaos SLO run
//	ninecload -addr HOST -dup-ratio 0.95 -corpus 8 \
//	          -verify -mix 0                           # duplicate-heavy cache replay
//
// Any non-zero -chaos-* setting routes traffic through the proxy with
// keep-alives off, so each request is its own connection and meets its
// own seeded fault plan. Without chaos, connections are reused, so
// transport cost does not mask the cache-hit path a replay measures.
//
// The workload is deterministic: -seed fixes the corpus, the
// encode/decode mix per request, the client's backoff jitter, and every
// chaos decision, so a failing run replays exactly.
//
// Exit status: 0 when every SLO holds, 1 on any violation (latency,
// success rate, unclassified client errors, daemon panics), 2 on setup
// failure (daemon unreachable, bad flags).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/tcube"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

type options struct {
	addr string
	n    int
	c    int
	seed int64
	mix  float64

	patterns int
	width    int
	corpus   int

	dupRatio float64
	verify   bool

	chaosLatency   time.Duration
	chaosReset     float64
	chaosSlowloris float64

	retries        int
	budget         time.Duration
	attemptTimeout time.Duration

	sloP99     time.Duration
	sloSuccess float64
}

// chaos reports whether any chaos setting is on, which routes traffic
// through the proxy.
func (o options) chaos() bool {
	return o.chaosLatency > 0 || o.chaosReset > 0 || o.chaosSlowloris > 0
}

func realMain(args []string, out io.Writer) int {
	var o options
	fs := flag.NewFlagSet("ninecload", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "localhost:9314", "ninecd address (host:port)")
	fs.IntVar(&o.n, "n", 200, "total requests to issue")
	fs.IntVar(&o.c, "c", 8, "concurrent workers")
	fs.Int64Var(&o.seed, "seed", 1, "seed for corpus, mix, jitter, and chaos")
	fs.Float64Var(&o.mix, "mix", 0.5, "fraction of requests that decode (rest encode)")
	fs.IntVar(&o.patterns, "patterns", 16, "patterns per corpus test set")
	fs.IntVar(&o.width, "width", 64, "bits per corpus pattern")
	fs.IntVar(&o.corpus, "corpus", 8, "distinct test sets in the replay corpus")
	fs.Float64Var(&o.dupRatio, "dup-ratio", 0, "fraction of encodes replaying a corpus set (rest are unique cold sets; 0 = round-robin corpus replay)")
	fs.BoolVar(&o.verify, "verify", false, "assert corpus encode responses are byte-identical to a local reference encode")
	fs.DurationVar(&o.chaosLatency, "chaos-latency", 0, "added latency per connection direction (non-zero routes through the chaos proxy)")
	fs.Float64Var(&o.chaosReset, "chaos-reset", 0, "per-connection probability of a mid-body RST (non-zero routes through the chaos proxy)")
	fs.Float64Var(&o.chaosSlowloris, "chaos-slowloris", 0, "per-connection probability of slow-loris dripping (non-zero routes through the chaos proxy)")
	fs.IntVar(&o.retries, "retries", 5, "max attempts per request")
	fs.DurationVar(&o.budget, "budget", 10*time.Second, "overall retry budget per request")
	fs.DurationVar(&o.attemptTimeout, "attempt-timeout", 2*time.Second, "per-attempt deadline")
	fs.DurationVar(&o.sloP99, "slo-p99", 0, "client-observed p99 latency objective (0 = skip)")
	fs.Float64Var(&o.sloSuccess, "slo-success", 0.99, "required success fraction after retries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.n <= 0 || o.c <= 0 || o.retries <= 0 || o.mix < 0 || o.mix > 1 {
		fmt.Fprintln(os.Stderr, "ninecload: -n, -c and -retries must be positive, -mix in [0,1]")
		return 2
	}
	if o.dupRatio < 0 || o.dupRatio > 1 || o.corpus <= 0 {
		fmt.Fprintln(os.Stderr, "ninecload: -dup-ratio in [0,1], -corpus positive")
		return 2
	}

	// The harness's own registry collects the client's retry counters
	// (retries, recoveries, budget denials) for the report.
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Disable()

	rep, err := run(o, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninecload:", err)
		return 2
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if len(rep.Violations) > 0 {
		return 1
	}
	return 0
}

// run executes the workload and builds the report. Setup failures are
// errors; SLO failures are violations on the report.
func run(o options, reg *obs.Registry) (*report, error) {
	texts, conts, err := buildCorpus(o.patterns, o.width, o.corpus, o.seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}

	target := strings.TrimPrefix(strings.TrimPrefix(o.addr, "http://"), "https://")
	var proxy *inject.Proxy
	if o.chaos() {
		proxy, err = inject.NewProxy(target, inject.ProxyConfig{
			Seed:          o.seed,
			Latency:       o.chaosLatency,
			ResetProb:     o.chaosReset,
			SlowLorisProb: o.chaosSlowloris,
		})
		if err != nil {
			return nil, err
		}
		defer proxy.Close()
		target = proxy.Addr()
	}

	// Keep-alives off through chaos: each request gets its own proxied
	// connection, so per-connection chaos plans are per-request plans.
	// Without chaos, reuse keeps connection setup from dominating the
	// cache-hit path a replay measures.
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: o.chaos()}}
	c, err := newClient(target, hc, policy{
		maxAttempts:    o.retries,
		attemptTimeout: o.attemptTimeout,
		budget:         o.budget,
	}, o.seed)
	if err != nil {
		return nil, err
	}

	// One untouched probe proves the daemon is actually there before
	// the harness blames chaos for connection failures.
	probeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	direct, err := newClient(o.addr, &http.Client{}, policy{}, 0)
	if err != nil {
		return nil, err
	}
	if err := direct.ready(probeCtx); err != nil {
		return nil, fmt.Errorf("daemon not ready at %s: %w", o.addr, err)
	}

	// The workload: worker g serves request indices g, g+c, g+2c, ...
	// Every per-request decision derives from (seed, index), so the run
	// replays under the same flags.
	samples := make([]sample, o.n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < o.c; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= o.n {
					return
				}
				samples[i] = oneRequest(c, o, texts, conts, i)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := buildReport(o, samples, elapsed, reg)
	if proxy != nil {
		st := proxy.Stats()
		rep.Proxy = &st
	}

	// Daemon-side verdict, scraped directly — never through the proxy,
	// so chaos cannot corrupt the evidence.
	scrapeCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	scrape, err := direct.metrics(scrapeCtx)
	if err != nil {
		rep.Violations = append(rep.Violations, fmt.Sprintf("daemon metrics scrape failed: %v", err))
		return rep, nil
	}
	for name, v := range scrape.Samples {
		if strings.HasSuffix(name, "_panics_total") {
			rep.DaemonPanics += int64(v)
		}
		if strings.HasSuffix(name, "_status_5xx_total") {
			rep.Daemon5xx += int64(v)
		}
	}
	rep.CacheHits = int64(scrape.Samples["ninecd_cache_hit_total"])
	rep.CacheMisses = int64(scrape.Samples["ninecd_cache_miss_total"])
	rep.CacheCoalesced = int64(scrape.Samples["ninecd_cache_coalesced_total"])
	if total := rep.CacheHits + rep.CacheMisses; total > 0 {
		rep.CacheHitRatio = float64(rep.CacheHits) / float64(total)
	}
	if rep.DaemonPanics > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("daemon recovered %d panics under load", rep.DaemonPanics))
	}
	return rep, nil
}

// oneRequest issues request i (encode or decode by the seeded mix) and
// returns its sample.
//
// Encode traffic models a test-floor replay: with -dup-ratio R, a
// request re-encodes one of the finite corpus sets with probability R
// (the duplicate-heavy stream a content-addressed cache absorbs) and
// otherwise submits a unique cold set derived from (seed, i) that no
// cache can have seen. Requests for corpus set j always carry the name
// "corpus-j" — the name is stored in the container, so stable naming
// is what makes replays byte-identical and therefore cacheable.
func oneRequest(c *client, o options, texts, conts [][]byte, i int) sample {
	rng := rand.New(rand.NewSource(o.seed ^ int64(i)*0x5851F42D4C957F2D))
	s := sample{op: "encode"}
	if rng.Float64() < o.mix {
		s.op = "decode"
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.budget+o.attemptTimeout+5*time.Second)
	defer cancel()
	start := time.Now()
	var err error
	switch s.op {
	case "decode":
		_, err = c.decode(ctx, conts[i%len(conts)])
	default:
		name, text, expected := pickEncode(o, texts, conts, rng, i)
		var cont []byte
		cont, err = c.encode(ctx, name, text)
		if err == nil && o.verify && expected != nil && !bytes.Equal(cont, expected) {
			s.class = "verify_mismatch"
			s.errMsg = fmt.Sprintf("%s: response differs from local reference encode (%d vs %d bytes)",
				name, len(cont), len(expected))
			s.dur = time.Since(start)
			return s
		}
	}
	s.dur = time.Since(start)
	if err != nil {
		s.class = errorClass(err)
		s.errMsg = err.Error()
	}
	return s
}

// pickEncode chooses request i's encode payload. expected is the local
// reference container for corpus sets (nil for unique cold sets, which
// have no precomputed reference).
func pickEncode(o options, texts, conts [][]byte, rng *rand.Rand, i int) (name string, text, expected []byte) {
	if o.dupRatio > 0 {
		if rng.Float64() < o.dupRatio {
			j := rng.Intn(len(texts))
			return fmt.Sprintf("corpus-%d", j), texts[j], conts[j]
		}
		return fmt.Sprintf("cold-%d", i), coldText(o, i), nil
	}
	j := i % len(texts)
	return fmt.Sprintf("corpus-%d", j), texts[j], conts[j]
}

// coldText generates the unique never-before-seen set for request i,
// same shape as the corpus, deterministic under -seed.
func coldText(o options, i int) []byte {
	rng := rand.New(rand.NewSource(o.seed ^ 0x436F6C64 ^ int64(i)*0x2545F4914F6CDD1D))
	return setText(rng, o.patterns, o.width)
}

// setText draws a patterns × width 01X test set from rng, one pattern
// per line.
func setText(rng *rand.Rand, patterns, width int) []byte {
	b := make([]byte, 0, patterns*(width+1))
	for p := 0; p < patterns; p++ {
		for j := 0; j < width; j++ {
			b = append(b, "01X"[rng.Intn(3)])
		}
		b = append(b, '\n')
	}
	return b
}

// buildCorpus generates `count` deterministic 01X test sets and their
// locally encoded v4 containers, so decode traffic needs no network
// round trip to set up.
func buildCorpus(patterns, width, count int, seed int64) (texts, conts [][]byte, err error) {
	cdc, err := core.New(blockK)
	if err != nil {
		return nil, nil, err
	}
	for v := 0; v < count; v++ {
		text := setText(rand.New(rand.NewSource(seed+int64(v))), patterns, width)
		set, err := tcube.Read(fmt.Sprintf("corpus-%d", v), bytes.NewReader(text))
		if err != nil {
			return nil, nil, err
		}
		res, err := cdc.EncodeSet(set)
		if err != nil {
			return nil, nil, err
		}
		res.Name = set.Name
		var buf bytes.Buffer
		if err := container.WriteVersion(&buf, res, container.Magic4); err != nil {
			return nil, nil, err
		}
		texts = append(texts, text)
		conts = append(conts, buf.Bytes())
	}
	return texts, conts, nil
}
