package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. The benchmark computes exactly
// these; BENCHMARK.json must list the same names, units and directions
// (TestBenchmarkJSON), and only BENCHMARK.json carries the bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of ninecd sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms.lo", "ms", "lower"},
	{"goodput_rps", "req/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"rss_mb", "MiB", "lower"},
	{"cr_pct", "%", "higher"},
}

// ungated are what the timed run prints and records without a bound:
// latencies whose spread across seeds on a shared 2-vCPU machine is
// wider than any bound BENCHMARK.json allows (queueing at rate hi
// amplifies the host's speed drift; p99 adds the host's stalls), and
// the host slowdown the timing metrics were scaled by (calib.go).
var ungated = []metricDef{
	{"p50_ms.hi", "ms", "lower"},
	{"p99_ms.lo", "ms", "lower"},
	{"p99_ms.hi", "ms", "lower"},
	{"host.slowdown", "ratio", "lower"},
}

// layerDef is a per-layer metric plus the end-to-end metrics it should
// move and the workloads on which it should move them, written down
// before any optimisation is measured (choosing-metrics guide §3).
type layerDef struct {
	metricDef
	Moves []string
	On    []string
}

var allWorkloads = []string{"mintest-encode", "mintest-decode", "small-mixed", "replay-lb"}

// perLayer comes from the traced run: in-process spans around the
// public calls of each layer, the daemons' access logs, and /metrics.
var perLayer = []layerDef{
	{metricDef{"tcube.read.us", "us", "lower"}, []string{"cpu_us_per_op", "p50_ms.lo"}, []string{"small-mixed", "mintest-encode"}},
	{metricDef{"tcube.read.alloc_kb", "KiB", "lower"}, []string{"cpu_us_per_op", "p50_ms.lo"}, []string{"small-mixed", "mintest-encode"}},
	{metricDef{"cachex.key.us", "us", "lower"}, []string{"cpu_us_per_op"}, []string{"replay-lb", "mintest-encode"}},
	{metricDef{"core.encode.us", "us", "lower"}, []string{"p50_ms.lo"}, []string{"mintest-encode"}},
	{metricDef{"core.encode.mbps", "MB/s", "higher"}, []string{"p50_ms.lo"}, []string{"mintest-encode"}},
	{metricDef{"container.write_v4.us", "us", "lower"}, []string{"p50_ms.lo", "cpu_us_per_op"}, []string{"mintest-encode"}},
	{metricDef{"container.write_v4.alloc_kb", "KiB", "lower"}, []string{"p50_ms.lo", "cpu_us_per_op"}, []string{"mintest-encode"}},
	{metricDef{"container.read_v4.us", "us", "lower"}, []string{"p50_ms.lo", "goodput_rps"}, []string{"mintest-decode", "small-mixed"}},
	{metricDef{"core.decode.us", "us", "lower"}, []string{"p50_ms.lo", "goodput_rps"}, []string{"mintest-decode", "small-mixed"}},
	{metricDef{"bitvec.text.us", "us", "lower"}, []string{"p50_ms.lo", "goodput_rps"}, []string{"mintest-decode", "small-mixed"}},
	{metricDef{"ledger.stages.p50_us", "us", "lower"}, []string{"p50_ms.lo"}, allWorkloads},
	{metricDef{"ledger.gap_pct", "%", "lower"}, []string{"p50_ms.lo"}, []string{"mintest-encode", "mintest-decode"}},
	{metricDef{"ninecd.queue_wait.p50_us", "us", "lower"}, []string{"p50_ms.lo", "goodput_rps"}, allWorkloads},
	{metricDef{"ninecd.queue_wait.p99_us", "us", "lower"}, []string{"p50_ms.lo", "goodput_rps"}, allWorkloads},
	{metricDef{"ninecd.handler.p50_us", "us", "lower"}, []string{"p50_ms.lo"}, allWorkloads},
	{metricDef{"ninecd.handler.p99_us", "us", "lower"}, []string{"p50_ms.lo"}, allWorkloads},
	{metricDef{"ninecd.http.p50_us", "us", "lower"}, []string{"p50_ms.lo"}, []string{"small-mixed", "replay-lb"}},
	{metricDef{"ninecd.rejected", "count", "lower"}, []string{"goodput_rps"}, allWorkloads},
	{metricDef{"ninecd.prio_lane.ratio", "ratio", "higher"}, []string{"p50_ms.lo"}, []string{"small-mixed"}},
	{metricDef{"cachex.hit_ratio", "ratio", "higher"}, []string{"goodput_rps", "cpu_us_per_op"}, []string{"replay-lb"}},
	{metricDef{"cachex.coalesced", "count", "higher"}, []string{"goodput_rps"}, []string{"replay-lb"}},
	{metricDef{"ninecd.gc_per_kop", "1/kop", "lower"}, []string{"cpu_us_per_op", "rss_mb"}, []string{"mintest-encode", "small-mixed"}},
	{metricDef{"ninecd.gc_cpu_pct", "%", "lower"}, []string{"cpu_us_per_op", "rss_mb"}, []string{"mintest-encode", "small-mixed"}},
	{metricDef{"loadgen.lag_p99_ms", "ms", "lower"}, []string{"p50_ms.lo"}, allWorkloads},
	{metricDef{"loadgen.samples.lo", "count", "higher"}, []string{"p50_ms.lo"}, allWorkloads},
	{metricDef{"loadgen.samples.hi", "count", "higher"}, []string{"goodput_rps"}, allWorkloads},
	{metricDef{"loadgen.fail_pct", "%", "lower"}, []string{"p50_ms.lo", "goodput_rps"}, allWorkloads},
	{metricDef{"trace.overhead_pct", "%", "lower"}, []string{"p50_ms.lo"}, allWorkloads},
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadSpec reads a BENCHMARK.json.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric finds an end-to-end or per-layer metric by name.
func (s *spec) metric(name string) (specMetric, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}
