package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (text/plain; version=0.0.4) over
// the registry. The repo's dot-separated lowercase metric names map
// onto Prometheus names by replacing every '.' with '_' (PromName);
// the metric-name contract test keeps that mapping collision-free
// across the whole registry. Counters gain the conventional _total
// suffix; log2 histograms export exact integer upper bounds (bucket i
// holds v < 2^i, so le = 2^i - 1 is exact for integer observations).
// ParsePrometheus reads the same subset back.

// PromContentType is the Content-Type of the exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromName maps a dot-separated metric name onto its Prometheus
// name: letters, digits, and underscores pass through, every other
// byte becomes '_', and a leading digit gains a '_' prefix.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promState is the consistent copy of the registry taken under its
// mutex, written out lock-free.
type promState struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

func (r *Registry) promState() promState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := promState{
		counters: make(map[string]*Counter, len(r.counters)),
		gauges:   make(map[string]*Gauge, len(r.gauges)),
		hists:    make(map[string]*Histogram, len(r.hists)),
		help:     make(map[string]string, len(r.help)),
	}
	for n, m := range r.counters {
		st.counters[n] = m
	}
	for n, m := range r.gauges {
		st.gauges[n] = m
	}
	for n, m := range r.hists {
		st.hists[n] = m
	}
	for n, h := range r.help {
		st.help[n] = h
	}
	return st
}

// helpFor returns the HELP text for a metric: the Describe()d string
// when set, otherwise the dotted source name itself — which documents
// the Prometheus↔registry name mapping in the exposition.
func (st promState) helpFor(name, kind string) string {
	if h, ok := st.help[name]; ok {
		return escapeHelp(h)
	}
	return escapeHelp(name + " (" + kind + ")")
}

// WritePrometheus writes every metric in the registry in the
// Prometheus text exposition format, families sorted by name for a
// stable scrape. Nil-safe: a nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	st := r.promState()
	bw := bufio.NewWriter(w)

	names := make([]string, 0, len(st.counters)+len(st.gauges)+len(st.hists))
	for n := range st.counters {
		names = append(names, n)
	}
	for n := range st.gauges {
		names = append(names, n)
	}
	for n := range st.hists {
		names = append(names, n)
	}
	sort.Strings(names)

	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if c, ok := st.counters[name]; ok {
			fam := PromName(name) + "_total"
			if seen[fam] {
				continue
			}
			seen[fam] = true
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				fam, st.helpFor(name, "counter"), fam, fam, c.Value())
		}
		if g, ok := st.gauges[name]; ok {
			fam := PromName(name)
			if seen[fam] {
				continue
			}
			seen[fam] = true
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
				fam, st.helpFor(name, "gauge"), fam, fam, g.Value())
		}
		if h, ok := st.hists[name]; ok {
			writeLog2Hist(bw, st, name, h, seen)
		}
	}
	return bw.Flush()
}

// writeLog2Hist exports one log2 histogram as cumulative _bucket,
// _sum, and _count series. Bucket i of the source holds integer values
// in [2^(i-1), 2^i) (bucket 0: v <= 0), so le = 2^i - 1 is an exact
// inclusive upper bound; only populated prefixes are emitted, then
// +Inf.
func writeLog2Hist(bw *bufio.Writer, st promState, name string, h *Histogram, seen map[string]bool) {
	fam := PromName(name)
	if seen[fam] {
		return
	}
	seen[fam] = true
	fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s histogram\n",
		fam, st.helpFor(name, "log2 histogram"), fam)
	// One pass over the buckets; the +Inf bucket and _count derive from
	// the same reads, so the cumulative series is consistent even while
	// writers are racing the scrape.
	maxPow, total := 0, int64(0)
	var counts [histBuckets]int64
	for i := 0; i < histBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
		if counts[i] != 0 {
			maxPow = i
		}
	}
	cum := int64(0)
	for i := 0; i <= maxPow; i++ {
		cum += counts[i]
		var le string
		if i == 0 {
			le = "0"
		} else if i < 64 {
			le = strconv.FormatUint(1<<uint(i)-1, 10)
		} else {
			le = strconv.FormatUint(^uint64(0), 10)
		}
		fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", fam, le, cum)
	}
	fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", fam, total)
	fmt.Fprintf(bw, "%s_sum %d\n%s_count %d\n", fam, h.Sum(), fam, total)
}

// PromScrape is one parsed exposition: every sample outside the
// _bucket series by full name (counters with their _total suffix,
// gauges, histogram _sum and _count), and every histogram reassembled
// from its _bucket series by family name.
type PromScrape struct {
	Samples map[string]float64
	Hists   map[string]*PromHist
}

// PromHist is one histogram family: ascending upper bounds ending in
// +Inf, the cumulative count at each, and the family's _sum/_count.
type PromHist struct {
	Bounds []float64
	Counts []float64
	Sum    float64
	Count  float64
}

// ParsePrometheus parses the subset of the text format WritePrometheus
// emits: comment lines, bare samples, and _bucket samples whose only
// label is le. Any other line is an error naming it, so a truncated or
// foreign exposition never reads as zeros.
func ParsePrometheus(r io.Reader) (*PromScrape, error) {
	s := &PromScrape{
		Samples: make(map[string]float64),
		Hists:   make(map[string]*PromHist),
	}
	type bucketSample struct{ le, v float64 }
	buckets := make(map[string][]bucketSample)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// WritePrometheus never puts a space inside a label set, so the
		// last space separates the series from its value.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("obs: metrics line %q: no value", line)
		}
		val, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %q: %w", line, err)
		}
		name, labels, hasLabels := strings.Cut(strings.TrimSpace(line[:i]), "{")
		if name == "" || strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("obs: metrics line %q: bad series name", line)
		}
		if !hasLabels {
			s.Samples[name] = val
			continue
		}
		base, isBucket := strings.CutSuffix(name, "_bucket")
		le, ok := strings.CutPrefix(labels, `le="`)
		le, ok2 := strings.CutSuffix(le, `"}`)
		if !isBucket || !ok || !ok2 {
			return nil, fmt.Errorf("obs: metrics line %q: want a _bucket series with one le label", line)
		}
		bound, err := strconv.ParseFloat(le, 64) // accepts "+Inf"
		if err != nil {
			return nil, fmt.Errorf("obs: metrics line %q: %w", line, err)
		}
		buckets[base] = append(buckets[base], bucketSample{bound, val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	for base, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		h := &PromHist{Sum: s.Samples[base+"_sum"], Count: s.Samples[base+"_count"]}
		for _, b := range bs {
			h.Bounds = append(h.Bounds, b.le)
			h.Counts = append(h.Counts, b.v)
		}
		s.Hists[base] = h
	}
	return s, nil
}
