package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tcube"
)

func TestNearestRank(t *testing.T) {
	var vs []float64
	for i := 100; i >= 1; i-- {
		vs = append(vs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0, 1}, {99.5, 100}} {
		if got := nearestRank(vs, c.p); got != c.want {
			t.Errorf("nearestRank(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vs[0] != 100 {
		t.Error("nearestRank sorted its input in place")
	}
	if got := nearestRank([]float64{7}, 99); got != 7 {
		t.Errorf("one sample: got %v", got)
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("no samples must give NaN")
	}
}

func TestPoissonSchedule(t *testing.T) {
	const rate = 1000.0
	a := poisson(7, rate, 10*time.Second)
	b := poisson(7, rate, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d", i)
		}
	}
	if c := poisson(8, rate, 10*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Error("different seeds gave the same schedule")
	}
	for seed := int64(1); seed <= 5; seed++ {
		s := poisson(seed, rate, 20*time.Second)
		if len(s) < 10000 {
			t.Fatalf("seed %d: only %d arrivals", seed, len(s))
		}
		got := 10000 / s[9999].Seconds()
		if math.Abs(got-rate)/rate > 0.02 {
			t.Errorf("seed %d: mean rate over 10^4 arrivals %.1f/s, want %.0f ±2%%", seed, got, rate)
		}
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				t.Fatalf("seed %d: schedule not sorted at %d", seed, i)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.build(3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.build(3)
			if err != nil {
				t.Fatal(err)
			}
			c, err := w.build(4)
			if err != nil {
				t.Fatal(err)
			}
			differ := false
			for i := 0; i < 200; i++ {
				ra, err := a.gen(i, nil)
				if err != nil {
					t.Fatal(err)
				}
				rb, _ := b.gen(i, nil)
				rc, _ := c.gen(i, nil)
				if !bytes.Equal(ra.body, rb.body) || ra.decode != rb.decode || ra.item != rb.item {
					t.Fatalf("request %d differs between two builds of seed 3", i)
				}
				differ = differ || !bytes.Equal(ra.body, rc.body)
			}
			if !differ {
				t.Error("seeds 3 and 4 generated the same requests")
			}
		})
	}
}

// TestOpenPhaseSamples checks that at the benchmark's run length every
// workload schedules at least 1000 requests in each open-loop phase, so
// p99 has at least 10 samples beyond it.
func TestOpenPhaseSamples(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := int64(1); seed <= 20; seed++ {
			var lo, hi int
			for _, r := range makePlan(w, seed, float64(sp.RunSeconds), false).rounds {
				lo, hi = lo+len(r.lo), hi+len(r.hi)
			}
			if lo < 1000 || hi < 1000 {
				t.Errorf("%s seed %d: %d lo and %d hi arrivals, want at least 1000 each", w.name, seed, lo, hi)
			}
		}
	}
}

// TestMintestEncodeBodiesUnique checks every body of a full run at the
// benchmark's run length, warm-up included, so the result cache never
// sees a repeat.
func TestMintestEncodeBodiesUnique(t *testing.T) {
	w, _ := workloadByName("mintest-encode")
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	last := makePlan(w, 1, float64(sp.RunSeconds), false).rounds[rounds-1]
	n := last.firstClosed() + last.closedOps
	in, err := w.build(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[32]byte]int, n)
	var buf []byte
	for i := 0; i < n; i++ {
		req, err := in.gen(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = req.body
		sum := sha256.Sum256(req.body)
		if j, dup := seen[sum]; dup {
			t.Fatalf("requests %d and %d have the same body", j, i)
		}
		seen[sum] = i
	}
}

func TestEditorVariants(t *testing.T) {
	set, err := tcube.Read("t", bytes.NewReader([]byte("01X0\nX1X1\n110X\n")))
	if err != nil {
		t.Fatal(err)
	}
	text := setText(set)
	e := newEditor(text, set, 5)
	seen := map[string]bool{string(text): true}
	for j := 0; j < set.Bits(); j++ {
		v, err := e.variant(j, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(v)] {
			t.Fatalf("variant %d repeats an earlier body or the base", j)
		}
		seen[string(v)] = true
		got, err := tcube.Read("t", bytes.NewReader(v))
		if err != nil || got.Width() != set.Width() || got.Len() != set.Len() {
			t.Fatalf("variant %d is not a %dx%d set: %v", j, set.Len(), set.Width(), err)
		}
	}
	if _, err := e.variant(set.Bits(), nil); err == nil {
		t.Error("variant beyond the distinct edits must fail")
	}
}

// TestVerifierRejects serves a container with one byte flipped and a
// truncated decode text, and checks the verifier refuses both while it
// accepts the same responses untampered.
func TestVerifierRejects(t *testing.T) {
	w, _ := workloadByName("small-mixed")
	r, err := newRunner(options{seed: 1, smoke: true}, w)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := r.in.probes[0], r.in.probes[1]
	encIt := r.in.items[enc.item]
	text, err := r.path.decode("t", r.in.items[dec.item].cont)
	if err != nil {
		t.Fatal(err)
	}
	text = bytes.Clone(text)
	var tamper atomic.Bool // read on the server's goroutines
	mux := http.NewServeMux()
	mux.HandleFunc("/encode", func(w http.ResponseWriter, _ *http.Request) {
		c := bytes.Clone(encIt.cont)
		if tamper.Load() {
			c[len(c)/2] ^= 1
		}
		w.Header().Set("X-Compressed-Bits", strconv.Itoa(encIt.compBits))
		w.Write(c)
	})
	mux.HandleFunc("/decode", func(w http.ResponseWriter, _ *http.Request) {
		if tamper.Load() {
			w.Write(text[:len(text)-3])
			return
		}
		w.Write(text)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tampered := range []bool{false, true} {
		tamper.Store(tampered)
		for _, req := range []request{enc, dec} {
			var sm sample
			post(context.Background(), srv.Client(), srv.URL, "t", req, &sm)
			sm.req = req
			if sm.status != http.StatusOK {
				t.Fatalf("status %d %s", sm.status, sm.err)
			}
			err := r.check(&sm, nil)
			if tampered && (err == nil || sm.ok) {
				t.Errorf("decode=%v: a corrupted response verified", req.decode)
			}
			if !tampered && (err != nil || !sm.ok) {
				t.Errorf("decode=%v: the reference response did not verify: %v", req.decode, err)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
	} {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; statistics.quantiles gives %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := specMetric{Name: "p50_ms.lo", Better: "lower", Bound: &bound}
	higher := specMetric{Name: "goodput_rps", Better: "higher", Bound: &bound}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		m      specMetric
		change []float64
		want   string
	}{
		{lower, scale(0.8), "improved"},
		{lower, scale(1.05), "no worse"},
		{lower, scale(1.2), "regressed"},
		{higher, scale(1.2), "improved"},
		{higher, scale(0.8), "regressed"},
		{lower, []float64{60, 140, 60, 140, 60, 140, 60, 140, 100, 100}, "no worse"},
		{specMetric{Name: "tcube.read.us"}, scale(2), "-"},
	} {
		r := row{parent: parent, change: c.change, pairs: len(parent)}
		for i := range parent {
			if better(c.m.Better, c.change[i], parent[i]) {
				r.wins++
			}
		}
		if got := verdict(c.m, r); got != c.want {
			t.Errorf("%s with change %v: verdict %q, want %q", c.m.Name, c.change, got, c.want)
		}
	}
	wide := []float64{60, 140, 60, 140, 60, 140, 60, 140, 100, 100}
	r := row{parent: wide, change: wide, pairs: len(wide)}
	if got := verdict(lower, r); got != "unresolved" {
		t.Errorf("a parent spread wider than the bound: verdict %q, want unresolved", got)
	}
}
