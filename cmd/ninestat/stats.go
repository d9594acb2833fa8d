package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
)

// routeStat is what one scrape interval reveals about one route.
type routeStat struct {
	Route     string  `json:"route"`
	ReqPerSec float64 `json:"req_per_sec"`
	Rate2xx   float64 `json:"rate_2xx"`
	Rate4xx   float64 `json:"rate_4xx"`
	Rate5xx   float64 `json:"rate_5xx"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// sloStat mirrors the daemon's burn-rate gauges.
type sloStat struct {
	ErrorBurn   float64 `json:"error_burn"`
	LatencyBurn float64 `json:"latency_burn"`
	Ready       bool    `json:"ready"`
	WindowTotal float64 `json:"window_total"`
}

// cacheStat summarizes the daemon's content-addressed result cache
// over the interval. Present is false when the daemon runs with
// -cache=off — the cache metric families never appear in the
// exposition — so the console can distinguish "cache disabled" from
// "cache idle".
type cacheStat struct {
	Present         bool    `json:"present"`
	HitsPerSec      float64 `json:"hits_per_sec"`
	MissesPerSec    float64 `json:"misses_per_sec"`
	CoalescedPerSec float64 `json:"coalesced_per_sec"`
	HitRatio        float64 `json:"hit_ratio"`
	Entries         float64 `json:"entries"`
	Bytes           float64 `json:"bytes"`
}

// profileStat summarizes the daemon's tuned-codec profile store and
// training activity. Present is false against a pre-profile daemon
// whose exposition lacks the profile families entirely.
type profileStat struct {
	Present        bool    `json:"present"`
	Resident       float64 `json:"resident"`
	InstallsPerSec float64 `json:"installs_per_sec"`
	Trains         float64 `json:"trains"`
	// LastUpliftPct is the most recent train's tuned-vs-fixed CR
	// uplift in percentage points (the daemon exports basis points).
	LastUpliftPct float64 `json:"last_uplift_pct"`
}

// summary is one interval's condensed view — what -once emits as JSON
// and what the live screen renders.
type summary struct {
	Addr            string      `json:"addr"`
	IntervalSeconds float64     `json:"interval_s"`
	ReqPerSec       float64     `json:"req_per_sec"`
	Routes          []routeStat `json:"routes"`
	Inflight        float64     `json:"inflight"`
	Goroutines      float64     `json:"goroutines"`
	HeapAllocBytes  float64     `json:"heap_alloc_bytes"`
	HeapInuseBytes  float64     `json:"heap_inuse_bytes"`
	GCPerSec        float64     `json:"gc_per_sec"`
	GCPauseP50Us    float64     `json:"gc_pause_p50_us"`
	GCPauseP99Us    float64     `json:"gc_pause_p99_us"`
	SchedLatP99Us   float64     `json:"sched_lat_p99_us"`
	Cache           cacheStat   `json:"cache"`
	Profiles        profileStat `json:"profiles"`
	SLO             sloStat     `json:"slo"`
}

// rate returns the per-second increase of a cumulative sample between
// two scrapes; counter resets (daemon restart) clamp to zero.
func rate(cur, prev *scrape, name string, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	d := cur.Samples[name] - prev.Samples[name]
	if d < 0 {
		return 0
	}
	return d / dt
}

// quantileDelta recovers quantile q from the increase of a histogram
// between two scrapes, interpolating linearly inside the bucket the
// rank lands in. prev may be nil (treated as empty). Returns NaN when
// no observations landed in the interval.
func quantileDelta(cur, prev *obs.PromHist, q float64) float64 {
	if cur == nil || len(cur.Bounds) == 0 {
		return math.NaN()
	}
	delta := make([]float64, len(cur.Bounds))
	for i := range cur.Bounds {
		d := cur.Counts[i]
		if prev != nil && i < len(prev.Counts) {
			d -= prev.Counts[i]
		}
		if d < 0 {
			d = 0 // counter reset
		}
		delta[i] = d
	}
	total := delta[len(delta)-1]
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	cumPrev := 0.0
	for i, c := range delta {
		if c < cumPrev {
			c = cumPrev // guard non-monotone input
		}
		if c >= rank {
			lo := 0.0
			if i > 0 {
				lo = cur.Bounds[i-1]
			}
			hi := cur.Bounds[i]
			if math.IsInf(hi, 1) {
				// Open-ended bucket: the lower bound is the best honest
				// answer (still finite, as the acceptance criteria need).
				return lo
			}
			inBucket := c - cumPrev
			if inBucket <= 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-cumPrev)/inBucket
		}
		cumPrev = c
	}
	return cur.Bounds[len(cur.Bounds)-1]
}

// discoverRoutes lists the routes the daemon exposes, from the
// ninecd_http_<route>_requests_total family.
func discoverRoutes(s *scrape) []string {
	var routes []string
	for name := range s.Samples {
		route, ok := strings.CutPrefix(name, "ninecd_http_")
		if !ok {
			continue
		}
		route, ok = strings.CutSuffix(route, "_requests_total")
		if !ok || route == "" || strings.Contains(route, "_status_") {
			continue
		}
		routes = append(routes, route)
	}
	sort.Strings(routes)
	return routes
}

// summarize condenses the delta between two scrapes.
func summarize(addr string, cur, prev *scrape) summary {
	dt := cur.at.Sub(prev.at).Seconds()
	sum := summary{
		Addr:            addr,
		IntervalSeconds: dt,
		ReqPerSec:       rate(cur, prev, "ninecd_http_requests_total", dt),
		Inflight:        cur.Samples["ninecd_inflight"],
		Goroutines:      cur.Samples["runtime_goroutines"],
		HeapAllocBytes:  cur.Samples["runtime_heap_alloc_bytes"],
		HeapInuseBytes:  cur.Samples["runtime_heap_inuse_bytes"],
		GCPerSec:        rate(cur, prev, "runtime_num_gc", dt),
		SchedLatP99Us:   cur.Samples["runtime_sched_latency_p99_ns"] / 1e3,
		SLO: sloStat{
			ErrorBurn:   cur.Samples["ninecd_slo_error_burn_ppm"] / 1e6,
			LatencyBurn: cur.Samples["ninecd_slo_latency_burn_ppm"] / 1e6,
			Ready:       cur.Samples["ninecd_slo_ready"] > 0,
			WindowTotal: cur.Samples["ninecd_slo_window_total"],
		},
	}
	if _, ok := cur.Samples["ninecd_cache_hit_total"]; ok {
		sum.Cache = cacheStat{
			Present:         true,
			HitsPerSec:      rate(cur, prev, "ninecd_cache_hit_total", dt),
			MissesPerSec:    rate(cur, prev, "ninecd_cache_miss_total", dt),
			CoalescedPerSec: rate(cur, prev, "ninecd_cache_coalesced_total", dt),
			Entries:         cur.Samples["ninecd_cache_entries"],
			Bytes:           cur.Samples["ninecd_cache_bytes"],
		}
		dh := cur.Samples["ninecd_cache_hit_total"] - prev.Samples["ninecd_cache_hit_total"]
		dm := cur.Samples["ninecd_cache_miss_total"] - prev.Samples["ninecd_cache_miss_total"]
		if dh < 0 || dm < 0 || dh+dm == 0 {
			// Counter reset (daemon restart) or an idle interval: the
			// cumulative lifetime ratio is the honest fallback.
			dh = cur.Samples["ninecd_cache_hit_total"]
			dm = cur.Samples["ninecd_cache_miss_total"]
		}
		if dh+dm > 0 {
			sum.Cache.HitRatio = dh / (dh + dm)
		}
	}
	if _, ok := cur.Samples["ninecd_profiles_resident"]; ok {
		sum.Profiles = profileStat{
			Present:        true,
			Resident:       cur.Samples["ninecd_profiles_resident"],
			InstallsPerSec: rate(cur, prev, "ninecd_profiles_installs_total", dt),
			Trains:         cur.Samples["ninecd_train_requests_total"],
			LastUpliftPct:  cur.Samples["ninecd_train_last_uplift_bp"] / 100,
		}
	}
	if gc := cur.Hists["runtime_gc_pause_ns"]; gc != nil {
		sum.GCPauseP50Us = nz(quantileDelta(gc, prev.Hists["runtime_gc_pause_ns"], 0.50) / 1e3)
		sum.GCPauseP99Us = nz(quantileDelta(gc, prev.Hists["runtime_gc_pause_ns"], 0.99) / 1e3)
	}
	for _, route := range discoverRoutes(cur) {
		base := "ninecd_http_" + route
		rs := routeStat{
			Route:     route,
			ReqPerSec: rate(cur, prev, base+"_requests_total", dt),
			Rate2xx:   rate(cur, prev, base+"_status_2xx_total", dt),
			Rate4xx:   rate(cur, prev, base+"_status_4xx_total", dt),
			Rate5xx:   rate(cur, prev, base+"_status_5xx_total", dt),
		}
		// The root span's log2 histogram is the route's latency, in ns.
		lat, latPrev := cur.Hists["span_"+base], prev.Hists["span_"+base]
		rs.P50Ms = nz(quantileDelta(lat, latPrev, 0.50) / 1e6)
		rs.P95Ms = nz(quantileDelta(lat, latPrev, 0.95) / 1e6)
		rs.P99Ms = nz(quantileDelta(lat, latPrev, 0.99) / 1e6)
		sum.Routes = append(sum.Routes, rs)
	}
	return sum
}

// nz maps NaN (no observations in the interval) to 0 so the summary
// always marshals to valid JSON.
func nz(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
