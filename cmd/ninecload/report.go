package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/inject"
	"repro/internal/obs"
)

// sample is one request as the client observed it: duration including
// every retry and hedge, and the error taxonomy class on failure.
type sample struct {
	op     string
	dur    time.Duration
	class  string // "" on success
	errMsg string
}

// report is the harness verdict: client-observed latency and goodput,
// the error taxonomy, the client's own resilience counters, the chaos
// proxy's fault ledger, and the daemon-side evidence — plus the list of
// SLO violations (empty means exit 0).
type report struct {
	Requests  int `json:"requests"`
	Encodes   int `json:"encodes"`
	Decodes   int `json:"decodes"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`

	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`

	GoodputRPS  float64 `json:"goodput_rps"`
	WallClockMs float64 `json:"wall_clock_ms"`

	Retries      int64 `json:"retries"`
	Recovered    int64 `json:"recovered"`
	Hedges       int64 `json:"hedges"`
	BudgetDenied int64 `json:"budget_denied"`

	ByClass      map[string]int64 `json:"errors_by_class,omitempty"`
	Unclassified int64            `json:"unclassified"`

	DaemonPanics int64              `json:"daemon_panics"`
	Daemon5xx    int64              `json:"daemon_5xx"`
	Proxy        *inject.ProxyStats `json:"proxy,omitempty"`

	// Daemon-side result-cache evidence, scraped from /metrics after
	// the run (cumulative over the daemon's lifetime).
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheCoalesced int64   `json:"cache_coalesced"`
	CacheHitRatio  float64 `json:"cache_hit_ratio"`

	// VerifyMismatches counts -verify failures: corpus encode responses
	// that were not byte-identical to the local reference encode.
	VerifyMismatches int64 `json:"verify_mismatches"`

	// TrainedProfile/TrainUpliftPct record the -profile setup step: the
	// profile every encode replayed under and its trained CR uplift
	// over the fixed 9C code in percentage points.
	TrainedProfile string  `json:"trained_profile,omitempty"`
	TrainUpliftPct float64 `json:"train_uplift_pct,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// percentile returns the q-quantile (0 < q <= 1) of sorted durations
// by the nearest-rank method; zero when empty.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// buildReport folds the samples and the client-side counters into the
// report and evaluates the client-observed SLOs.
func buildReport(o options, samples []sample, elapsed time.Duration, reg *obs.Registry) *report {
	rep := &report{
		Requests:    len(samples),
		ByClass:     map[string]int64{},
		WallClockMs: ms(elapsed),
	}
	var okDurs []time.Duration
	for _, s := range samples {
		if s.op == "decode" {
			rep.Decodes++
		} else {
			rep.Encodes++
		}
		if s.class == "" {
			rep.Succeeded++
			okDurs = append(okDurs, s.dur)
			continue
		}
		rep.Failed++
		rep.ByClass[s.class]++
		if s.class == "unclassified" {
			rep.Unclassified++
		}
	}
	sort.Slice(okDurs, func(i, j int) bool { return okDurs[i] < okDurs[j] })
	rep.P50Ms = ms(percentile(okDurs, 0.50))
	rep.P95Ms = ms(percentile(okDurs, 0.95))
	rep.P99Ms = ms(percentile(okDurs, 0.99))
	rep.MaxMs = ms(percentile(okDurs, 1))
	if secs := elapsed.Seconds(); secs > 0 {
		rep.GoodputRPS = float64(rep.Succeeded) / secs
	}

	for _, route := range []string{"ninecd.encode", "ninecd.decode"} {
		rep.Retries += reg.Counter("resilience." + route + ".retries").Value()
		rep.Recovered += reg.Counter("resilience." + route + ".recovered").Value()
		rep.Hedges += reg.Counter("resilience." + route + ".hedges").Value()
		rep.BudgetDenied += reg.Counter("resilience." + route + ".budget_exhausted").Value()
	}

	rep.VerifyMismatches = rep.ByClass["verify_mismatch"]
	if rep.VerifyMismatches > 0 {
		// A mismatch means the daemon returned different bytes for the
		// same request — a cache or encode correctness bug, never
		// acceptable at any rate.
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d encode responses differed from the local reference", rep.VerifyMismatches))
	}
	if rep.Unclassified > 0 {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%d unclassified client errors", rep.Unclassified))
	}
	if rate := float64(rep.Succeeded) / float64(rep.Requests); rate < o.sloSuccess {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("success rate %.4f below objective %.4f", rate, o.sloSuccess))
	}
	if o.sloP99 > 0 && rep.P99Ms > ms(o.sloP99) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("client p99 %.1fms exceeds objective %v", rep.P99Ms, o.sloP99))
	}
	// A request that ran past its budget (plus scheduling slack) means
	// the retrier's deadline accounting is broken — always a violation.
	if slack := o.budget + o.attemptTimeout + 2*time.Second; o.budget > 0 && rep.MaxMs > ms(slack) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("slowest call %.1fms overran the %v retry budget", rep.MaxMs, o.budget))
	}
	return rep
}

func (r *report) writeText(w io.Writer) {
	fmt.Fprintf(w, "ninecload: %d requests (%d encode / %d decode): %d ok, %d failed in %.1fms\n",
		r.Requests, r.Encodes, r.Decodes, r.Succeeded, r.Failed, r.WallClockMs)
	fmt.Fprintf(w, "  latency  p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n",
		r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs)
	fmt.Fprintf(w, "  goodput  %.1f req/s\n", r.GoodputRPS)
	fmt.Fprintf(w, "  client   retries=%d recovered=%d hedges=%d budget_denied=%d\n",
		r.Retries, r.Recovered, r.Hedges, r.BudgetDenied)
	if len(r.ByClass) > 0 {
		fmt.Fprintf(w, "  errors  ")
		classes := make([]string, 0, len(r.ByClass))
		for c := range r.ByClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			fmt.Fprintf(w, " %s=%d", c, r.ByClass[c])
		}
		fmt.Fprintln(w)
	}
	if r.Proxy != nil {
		fmt.Fprintf(w, "  chaos    conns=%d resets=%d slowloris=%d truncates=%d dups=%d\n",
			r.Proxy.Conns, r.Proxy.Resets, r.Proxy.SlowLoris, r.Proxy.Truncates, r.Proxy.Duplicates)
	}
	fmt.Fprintf(w, "  daemon   panics=%d 5xx=%d\n", r.DaemonPanics, r.Daemon5xx)
	if r.TrainedProfile != "" {
		fmt.Fprintf(w, "  profile  %s uplift=%.2fpp\n", r.TrainedProfile[:12], r.TrainUpliftPct)
	}
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(w, "  cache    hits=%d misses=%d coalesced=%d hit_ratio=%.3f\n",
			r.CacheHits, r.CacheMisses, r.CacheCoalesced, r.CacheHitRatio)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintln(w, "SLO: ok")
		return
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "SLO VIOLATION: %s\n", v)
	}
}
