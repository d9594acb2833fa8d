package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"ninecd.http.encode.requests": "ninecd_http_encode_requests",
		"already_fine":                "already_fine",
		"9starts.with.digit":          "_9starts_with_digit",
		"weird-chars: here":           "weird_chars__here",
		"":                            "",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promMeta pulls the HELP and TYPE lines out of an exposition; the
// samples are ParsePrometheus's.
func promMeta(t *testing.T, text string) (help, typ map[string]string) {
	t.Helper()
	help = make(map[string]string)
	typ = make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, _ := strings.Cut(rest, " ")
			help[name] = h
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, k, _ := strings.Cut(rest, " ")
			typ[name] = k
		} else if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
	}
	return help, typ
}

// TestWritePrometheusFormat writes a registry out and parses it back:
// every counter, gauge, histogram bucket, count and sum must survive.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("ninecd.http.requests").Add(7)
	r.Gauge("ninecd.inflight").Set(3)
	r.Describe("ninecd.http.requests", "total requests served")
	h := r.Histogram("span.ninecd.http.encode")
	for _, v := range []int64{0, 1, 2, 3, 1024} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	help, typ := promMeta(t, text)
	s, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v\n%s", err, text)
	}

	if got := s.Samples["ninecd_http_requests_total"]; got != 7 {
		t.Errorf("counter sample = %v, want 7", got)
	}
	if typ["ninecd_http_requests_total"] != "counter" {
		t.Errorf("counter TYPE = %q", typ["ninecd_http_requests_total"])
	}
	if help["ninecd_http_requests_total"] != "total requests served" {
		t.Errorf("Describe()d help lost: %q", help["ninecd_http_requests_total"])
	}
	if s.Samples["ninecd_inflight"] != 3 || typ["ninecd_inflight"] != "gauge" {
		t.Errorf("gauge: %v / %q", s.Samples["ninecd_inflight"], typ["ninecd_inflight"])
	}

	// Log2 histogram: exact integer bounds, cumulative, +Inf == _count.
	if typ["span_ninecd_http_encode"] != "histogram" {
		t.Errorf("hist TYPE = %q", typ["span_ninecd_http_encode"])
	}
	ph := s.Hists["span_ninecd_http_encode"]
	if ph == nil {
		t.Fatalf("histogram not recovered:\n%s", text)
	}
	wantBounds := []float64{0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047, math.Inf(1)}
	wantCounts := []float64{1, 2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5}
	if fmt.Sprint(ph.Bounds) != fmt.Sprint(wantBounds) || fmt.Sprint(ph.Counts) != fmt.Sprint(wantCounts) {
		t.Errorf("buckets = %v / %v, want %v / %v", ph.Bounds, ph.Counts, wantBounds, wantCounts)
	}
	if ph.Count != 5 || ph.Sum != 1030 {
		t.Errorf("count/sum = %v/%v, want 5/1030", ph.Count, ph.Sum)
	}

	// Every family must carry HELP and TYPE.
	fams := make([]string, 0, len(s.Samples)+len(s.Hists))
	for name := range s.Samples {
		base := name
		for _, suf := range []string{"_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && s.Hists[b] != nil {
				base = b
			}
		}
		fams = append(fams, base)
	}
	for name := range s.Hists {
		fams = append(fams, name)
	}
	for _, fam := range fams {
		if typ[fam] == "" || help[fam] == "" {
			t.Errorf("family %s lacks HELP or TYPE", fam)
		}
	}
}

const promFixture = `# HELP ninecd_http_requests_total ninecd.http.requests (counter)
# TYPE ninecd_http_requests_total counter
ninecd_http_requests_total 100
# TYPE ninecd_inflight gauge
ninecd_inflight 3
# TYPE span_ninecd_http_encode histogram
span_ninecd_http_encode_bucket{le="0"} 0
span_ninecd_http_encode_bucket{le="1048575"} 40
span_ninecd_http_encode_bucket{le="524287"} 10
span_ninecd_http_encode_bucket{le="+Inf"} 60
span_ninecd_http_encode_sum 1.5e+09
span_ninecd_http_encode_count 60
`

func TestParsePrometheus(t *testing.T) {
	s, err := ParsePrometheus(strings.NewReader(promFixture))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Samples["ninecd_http_requests_total"]; got != 100 {
		t.Errorf("requests_total = %v, want 100", got)
	}
	if got := s.Samples["ninecd_inflight"]; got != 3 {
		t.Errorf("inflight = %v, want 3", got)
	}
	h := s.Hists["span_ninecd_http_encode"]
	if h == nil {
		t.Fatal("latency histogram not reassembled")
	}
	// Buckets come back sorted by bound whatever their order on the wire.
	if len(h.Bounds) != 4 || h.Bounds[1] != 524287 || !math.IsInf(h.Bounds[3], 1) {
		t.Fatalf("bounds = %v, want 4 ascending, ending in +Inf", h.Bounds)
	}
	if h.Counts[2] != 40 || h.Count != 60 || h.Sum != 1.5e9 {
		t.Errorf("hist = %+v, want counts[2]=40 count=60 sum=1.5e9", h)
	}

	for _, bad := range []string{
		"ninecd_inflight",                          // no value
		"ninecd_inflight three",                    // value not a number
		`span_x_bucket{quantile="0.5"} 1`,          // bucket without le
		`span_x_bucket{le="fast"} 1`,               // le not a number
		`ninecd_http_requests_total{code="200"} 1`, // labels off a bucket
	} {
		if _, err := ParsePrometheus(strings.NewReader(promFixture + bad + "\n")); err == nil {
			t.Errorf("malformed line %q parsed without error", bad)
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote %q", buf.String())
	}
}

// TestPrometheusConsistentUnderConcurrentWriters scrapes while writers
// hammer the registry and asserts each scrape is internally consistent:
// cumulative bucket series are non-decreasing and the +Inf bucket
// equals _count for every histogram family. Run under -race in CI.
func TestPrometheusConsistentUnderConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("hammer.log2")
			c := r.Counter("hammer.count")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(int64(i % 5000))
				c.Inc()
			}
		}(w)
	}
	for scrapes := 0; scrapes < 50; scrapes++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Hists["hammer_log2"]
		if h == nil {
			continue // no writer has run yet
		}
		for i := 1; i < len(h.Counts); i++ {
			if h.Counts[i] < h.Counts[i-1] {
				t.Fatalf("scrape %d: cumulative buckets decrease: %v", scrapes, h.Counts)
			}
		}
		if inf := h.Counts[len(h.Counts)-1]; inf != h.Count {
			t.Fatalf("scrape %d: +Inf bucket %v != _count %v", scrapes, inf, h.Count)
		}
	}
	close(stop)
	wg.Wait()
}

// TestHistogramNegativeClamp pins the hardening contract: any negative
// value — math.MinInt64 included, whose bit pattern is hostile to
// naive bucket math — lands in bucket 0 as a 0, so it never corrupts
// the array or wraps the sum.
func TestHistogramNegativeClamp(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-1, -1024, math.MinInt64, 0} {
		h.Observe(v)
	}
	if got := h.buckets[0].Load(); got != 4 {
		t.Fatalf("bucket 0 = %d, want all 4 non-positive observations", got)
	}
	for i := 1; i < histBuckets; i++ {
		if h.buckets[i].Load() != 0 {
			t.Fatalf("bucket %d nonzero after negative observations", i)
		}
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 0 {
		t.Fatalf("sum = %d, want 0: negative values must not reach _sum", h.Sum())
	}
}
