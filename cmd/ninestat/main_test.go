package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

const promFixture = `# HELP ninecd_http_requests_total ninecd.http.requests (counter)
# TYPE ninecd_http_requests_total counter
ninecd_http_requests_total 100
# TYPE ninecd_inflight gauge
ninecd_inflight 3
# TYPE ninecd_http_encode_requests_total counter
ninecd_http_encode_requests_total 60
ninecd_http_encode_status_2xx_total 50
ninecd_http_encode_status_4xx_total 10
# TYPE span_ninecd_http_encode histogram
span_ninecd_http_encode_bucket{le="524287"} 10
span_ninecd_http_encode_bucket{le="8388607"} 40
span_ninecd_http_encode_bucket{le="134217727"} 58
span_ninecd_http_encode_bucket{le="+Inf"} 60
span_ninecd_http_encode_sum 1.5e+09
span_ninecd_http_encode_count 60
`

// mustScrape parses an exposition fixture strictly.
func mustScrape(t *testing.T, text string) *scrape {
	t.Helper()
	s, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return &scrape{at: time.Now(), PromScrape: s}
}

func TestQuantileDelta(t *testing.T) {
	// 100 observations uniform in the delta: bucket (0,10] has 50,
	// (10,100] has 50.
	prev := &obs.PromHist{Bounds: []float64{10, 100, math.Inf(1)}, Counts: []float64{0, 0, 0}}
	cur := &obs.PromHist{Bounds: []float64{10, 100, math.Inf(1)}, Counts: []float64{50, 100, 100}}
	if got := quantileDelta(cur, prev, 0.5); got != 10 {
		t.Errorf("p50 = %v, want 10 (upper edge of first bucket)", got)
	}
	// p75 is halfway through the second bucket: 10 + 90*(75-50)/50 = 55.
	if got := quantileDelta(cur, prev, 0.75); math.Abs(got-55) > 1e-9 {
		t.Errorf("p75 = %v, want 55", got)
	}
	// All mass in +Inf bucket: honest answer is the last finite bound.
	inf := &obs.PromHist{Bounds: []float64{10, 100, math.Inf(1)}, Counts: []float64{0, 0, 7}}
	if got := quantileDelta(inf, nil, 0.99); got != 100 {
		t.Errorf("p99 of overflow-only = %v, want 100", got)
	}
	// Empty interval has no quantile.
	if got := quantileDelta(cur, cur, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of empty delta = %v, want NaN", got)
	}
	// Counter reset (cur < prev) must not go negative.
	if got := quantileDelta(prev, cur, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile across reset = %v, want NaN", got)
	}
}

func TestSummarizeRatesAndRoutes(t *testing.T) {
	prev := mustScrape(t, promFixture)
	curText := strings.NewReplacer(
		"ninecd_http_requests_total 100", "ninecd_http_requests_total 300",
		"ninecd_http_encode_requests_total 60", "ninecd_http_encode_requests_total 160",
		`span_ninecd_http_encode_bucket{le="524287"} 10`, `span_ninecd_http_encode_bucket{le="524287"} 110`,
		`span_ninecd_http_encode_bucket{le="8388607"} 40`, `span_ninecd_http_encode_bucket{le="8388607"} 140`,
		`span_ninecd_http_encode_bucket{le="134217727"} 58`, `span_ninecd_http_encode_bucket{le="134217727"} 158`,
		`span_ninecd_http_encode_bucket{le="+Inf"} 60`, `span_ninecd_http_encode_bucket{le="+Inf"} 160`,
	).Replace(promFixture)
	cur := mustScrape(t, curText)
	cur.at = prev.at.Add(10 * time.Second)

	sum := summarize("test", cur, prev)
	if math.Abs(sum.ReqPerSec-20) > 1e-9 {
		t.Errorf("req/s = %v, want 20", sum.ReqPerSec)
	}
	if len(sum.Routes) != 1 || sum.Routes[0].Route != "encode" {
		t.Fatalf("routes = %+v, want exactly [encode]", sum.Routes)
	}
	if math.Abs(sum.Routes[0].ReqPerSec-10) > 1e-9 {
		t.Errorf("encode req/s = %v, want 10", sum.Routes[0].ReqPerSec)
	}
	// All 100 new observations landed in the first bucket, whose upper
	// bound is 524287ns: p99 falls inside (0, 0.524287]ms.
	if p := sum.Routes[0].P99Ms; p <= 0 || p > 0.524287 {
		t.Errorf("encode p99 = %vms, want (0, 0.524287]", p)
	}
	// The summary must always be marshalable (no NaN leaks).
	if _, err := json.Marshal(sum); err != nil {
		t.Errorf("summary not marshalable: %v", err)
	}
}

const cacheFixture = promFixture + `# TYPE ninecd_cache_hit_total counter
ninecd_cache_hit_total 80
ninecd_cache_miss_total 20
ninecd_cache_coalesced_total 4
# TYPE ninecd_cache_entries gauge
ninecd_cache_entries 12
ninecd_cache_bytes 4096
`

func TestSummarizeCacheStats(t *testing.T) {
	prev := mustScrape(t, cacheFixture)
	curText := strings.NewReplacer(
		"ninecd_cache_hit_total 80", "ninecd_cache_hit_total 170",
		"ninecd_cache_miss_total 20", "ninecd_cache_miss_total 30",
		"ninecd_cache_coalesced_total 4", "ninecd_cache_coalesced_total 24",
	).Replace(cacheFixture)
	cur := mustScrape(t, curText)
	cur.at = prev.at.Add(10 * time.Second)

	sum := summarize("test", cur, prev)
	if !sum.Cache.Present {
		t.Fatal("cache families in the scrape but Present = false")
	}
	if math.Abs(sum.Cache.HitsPerSec-9) > 1e-9 ||
		math.Abs(sum.Cache.MissesPerSec-1) > 1e-9 ||
		math.Abs(sum.Cache.CoalescedPerSec-2) > 1e-9 {
		t.Errorf("rates = %.1f/%.1f/%.1f, want 9/1/2",
			sum.Cache.HitsPerSec, sum.Cache.MissesPerSec, sum.Cache.CoalescedPerSec)
	}
	// Interval ratio: 90 new hits, 10 new misses.
	if math.Abs(sum.Cache.HitRatio-0.9) > 1e-9 {
		t.Errorf("hit ratio = %v, want 0.9 (interval delta)", sum.Cache.HitRatio)
	}
	if sum.Cache.Entries != 12 || sum.Cache.Bytes != 4096 {
		t.Errorf("entries/bytes = %v/%v, want 12/4096", sum.Cache.Entries, sum.Cache.Bytes)
	}

	// An idle interval falls back to the cumulative lifetime ratio
	// instead of reporting 0 for a warm cache.
	idle := summarize("test", cur, cur)
	if math.Abs(idle.Cache.HitRatio-0.85) > 1e-9 {
		t.Errorf("idle-interval hit ratio = %v, want cumulative 170/200", idle.Cache.HitRatio)
	}

	// A counter reset (daemon restart) also falls back to cumulative.
	reset := summarize("test", prev, cur)
	if math.Abs(reset.Cache.HitRatio-0.8) > 1e-9 {
		t.Errorf("post-reset hit ratio = %v, want cumulative 80/100", reset.Cache.HitRatio)
	}
}

func TestSummarizeCacheAbsent(t *testing.T) {
	prev := mustScrape(t, promFixture)
	cur := mustScrape(t, promFixture)
	cur.at = prev.at.Add(time.Second)
	sum := summarize("test", cur, prev)
	if sum.Cache.Present {
		t.Fatal("no cache families in the scrape but Present = true")
	}
}

func TestRenderCacheLine(t *testing.T) {
	var with strings.Builder
	render(&with, summary{Cache: cacheStat{Present: true, HitRatio: 0.9}}, false)
	if !strings.Contains(with.String(), "hit ratio 0.900") {
		t.Errorf("cache line missing from render:\n%s", with.String())
	}
	var without strings.Builder
	render(&without, summary{}, false)
	if strings.Contains(without.String(), "hit ratio") {
		t.Error("cache line rendered for a daemon with the cache off")
	}
}

func TestDiscoverRoutesSkipsStatusFamilies(t *testing.T) {
	s := mustScrape(t, promFixture)
	for _, r := range discoverRoutes(s) {
		if strings.Contains(r, "status") {
			t.Errorf("status family leaked into route list: %q", r)
		}
	}
}

func TestOnceMode(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := calls.Add(1)
		body := promFixture
		if n > 1 {
			body = strings.Replace(body, "ninecd_http_requests_total 100", "ninecd_http_requests_total 200", 1)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write([]byte(body))
	}))
	defer srv.Close()

	out, err := os.CreateTemp(t.TempDir(), "ninestat")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if code := realMain([]string{"-addr", srv.URL, "-once", "-interval", "100ms"}, out); code != 0 {
		t.Fatalf("realMain = %d, want 0", code)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("output is not one JSON summary: %v\n%s", err, data)
	}
	if sum.ReqPerSec <= 0 {
		t.Errorf("req/s = %v, want > 0 (100 new requests over the interval)", sum.ReqPerSec)
	}
	if calls.Load() != 2 {
		t.Errorf("scrapes = %d, want exactly 2 in -once mode", calls.Load())
	}
}

func TestRenderDoesNotPanicOnEmpty(t *testing.T) {
	var sb strings.Builder
	render(&sb, summary{}, false)
	if sb.Len() == 0 {
		t.Error("render produced nothing")
	}
}
