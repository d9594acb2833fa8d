package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cachex"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// The in-process ledger. It replays request bodies through the same
// public calls batchenc.encodeJob and ninecd's handleDecode make, one
// goroutine, with a span around each call. No span is recorded inside
// the program: these are the benchmark's own timers around layer
// boundaries.

// Stage span names; they are also the per-layer metric prefixes.
const (
	stTcube  = "tcube.read"
	stKey    = "cachex.key"
	stEncode = "core.encode"
	stWrite  = "container.write_v4"
	stRead   = "container.read_v4"
	stDecode = "core.decode"
	stText   = "bitvec.text"
)

var encodeStages = []string{stKey, stTcube, stEncode, stWrite}
var decodeStages = []string{stRead, stDecode, stText}

// span is one NDJSON record. Times are Unix nanoseconds. The decode
// stages interleave pattern by pattern, so each is recorded as one span
// per request that starts at the stage's first call and lasts the summed
// time of its calls; every other span is a real interval.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"span"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same code.
type tracer struct {
	spans []span
}

func (t *tracer) add(trace string, parent int64, name string, start time.Time, d time.Duration) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans) + 1)
	s := start.UnixNano()
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: s, End: s + int64(d)})
	return id
}

// root opens a request span; the returned func closes it.
func (t *tracer) root(trace, name string) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.add(trace, 0, name, start, 0)
	return id, func() { t.spans[id-1].End = start.UnixNano() + int64(time.Since(start)) }
}

func (t *tracer) writeNDJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// path runs one request's layers in-process. seen stands in for the
// daemon's result cache: a body whose key was seen before costs only
// the key, as a cache hit does in ninecd.
type path struct {
	tr      *tracer
	codec   *core.Codec
	ws      *core.Workspace
	seen    map[cachex.Key]bool
	text    []byte
	encBits int64 // |T_D| encoded so far, for core.encode.mbps
}

func newPath(tr *tracer) (*path, error) {
	c, err := core.New(encodeK)
	if err != nil {
		return nil, err
	}
	return &path{tr: tr, codec: c, ws: core.GetWorkspace(), seen: make(map[cachex.Key]bool)}, nil
}

// encode mirrors handleEncode: key, then on a miss parse, encode and
// frame. A key already seen stops after the key, as a cache hit does. It
// returns the container, or nil on a hit.
func (p *path) encode(trace string, body []byte) ([]byte, error) {
	rid, end := p.tr.root(trace, "encode")
	defer end()
	t := time.Now()
	key := cachex.EncodeParams{K: encodeK, Name: encodeName}.Key(body)
	p.tr.add(trace, rid, stKey, t, time.Since(t))
	if p.seen[key] {
		return nil, nil
	}
	p.seen[key] = true
	t = time.Now()
	set, err := tcube.Read(encodeName, bytes.NewReader(body))
	p.tr.add(trace, rid, stTcube, t, time.Since(t))
	if err != nil {
		return nil, err
	}
	p.encBits += int64(set.Bits())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t = time.Now()
	res, err := p.codec.EncodeSetWSCtx(ctx, p.ws, set)
	p.tr.add(trace, rid, stEncode, t, time.Since(t))
	if err != nil {
		return nil, err
	}
	res.Name = encodeName
	var buf bytes.Buffer
	t = time.Now()
	err = container.WriteVersion(&buf, res, container.Magic4)
	p.tr.add(trace, rid, stWrite, t, time.Since(t))
	return buf.Bytes(), err
}

// timedSource wraps the chunk reader so the time ReadPattern spends in
// it is charged to container.read_v4 rather than core.decode.
type timedSource struct {
	src core.StreamSource
	d   time.Duration
}

func (s *timedSource) ReadStream() (*bitvec.Cube, error) {
	t := time.Now()
	c, err := s.src.ReadStream()
	s.d += time.Since(t)
	return c, err
}

// decode mirrors decodeChunked: chunk reader, stream decoder, one text
// row per pattern. It returns the response text, which is only valid
// until the next call.
func (p *path) decode(trace string, cont []byte) ([]byte, error) {
	rid, end := p.tr.root(trace, "decode")
	defer end()
	lim := robust.DecodeLimits{}
	t0 := time.Now()
	chr, err := container.NewChunkReader(bytes.NewReader(cont), lim)
	if err != nil {
		return nil, err
	}
	src := &timedSource{src: chr, d: time.Since(t0)}
	h := chr.Header()
	var tDec, tText time.Duration
	var textStart time.Time
	t := time.Now()
	decStart := t
	cdc, err := p.codecFor(h)
	if err != nil {
		return nil, err
	}
	dec, err := cdc.NewStreamDecoder(src, h.Width, lim)
	tDec += time.Since(t)
	if err != nil {
		return nil, err
	}
	p.text = p.text[:0]
	for {
		t = time.Now()
		p0 := src.d
		pat, err := dec.ReadPattern()
		tDec += time.Since(t) - (src.d - p0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t = time.Now()
		if textStart.IsZero() {
			textStart = t
		}
		p.text = pat.AppendTextRange(p.text, 0, pat.Len())
		tText += time.Since(t)
		p.text = append(p.text, '\n')
	}
	p.tr.add(trace, rid, stRead, t0, src.d)
	p.tr.add(trace, rid, stDecode, decStart, tDec)
	if !textStart.IsZero() {
		p.tr.add(trace, rid, stText, textStart, tText)
	}
	return p.text, nil
}

// codecFor shares the default-assignment codec across calls, as
// ninecd's codec table does.
func (p *path) codecFor(h container.StreamHeader) (*core.Codec, error) {
	if h.K == p.codec.K() && h.Assign == p.codec.Assignment() {
		return p.codec, nil
	}
	return core.NewWithAssignment(h.K, h.Assign)
}

// checkItems is the set-up check every run makes, traced or not: the
// in-process path must reproduce each reference container byte for
// byte, and the text its decode returns must cover every care bit of
// the source set. It records the expected /decode response digest.
func checkItems(p *path, wl string, items []*item) error {
	for i, it := range items {
		trace := fmt.Sprintf("%s.setup.%d", wl, i)
		cont, err := p.encode(trace, it.text)
		if err != nil {
			return fmt.Errorf("%s: encode: %w", trace, err)
		}
		if !bytes.Equal(cont, it.cont) {
			return fmt.Errorf("%s: in-process encode differs from the batchenc reference", trace)
		}
		text, err := p.decode(trace, it.cont)
		if err != nil {
			return fmt.Errorf("%s: decode: %w", trace, err)
		}
		got, err := tcube.Read(it.set.Name, bytes.NewReader(text))
		if err != nil {
			return fmt.Errorf("%s: decoded text: %w", trace, err)
		}
		if !it.set.Covers(got) {
			return fmt.Errorf("%s: decoded set does not cover the source set's care bits", trace)
		}
		it.textSum = sha256.Sum256(text)
	}
	return nil
}

// allocKB measures the mean heap bytes one tcube.Read and one
// container.WriteVersion allocate, over up to n bodies, in a pass of
// its own so the stop-the-world stats reads never touch a timed span.
func allocKB(bodies [][]byte, n int) (readKB, writeKB float64, err error) {
	if len(bodies) > n {
		bodies = bodies[:n]
	}
	if len(bodies) == 0 {
		return 0, 0, nil
	}
	codec, err := core.New(encodeK)
	if err != nil {
		return 0, 0, err
	}
	ws := core.GetWorkspace()
	defer ws.Release()
	var m0, m1 runtime.MemStats
	var rd, wr uint64
	for _, b := range bodies {
		runtime.ReadMemStats(&m0)
		set, err := tcube.Read(encodeName, bytes.NewReader(b))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		rd += m1.TotalAlloc - m0.TotalAlloc
		res, err := codec.EncodeSetWS(ws, set)
		if err != nil {
			return 0, 0, err
		}
		res.Name = encodeName
		var buf bytes.Buffer
		runtime.ReadMemStats(&m0)
		err = container.WriteVersion(&buf, res, container.Magic4)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		wr += m1.TotalAlloc - m0.TotalAlloc
	}
	n = len(bodies)
	return float64(rd) / 1024 / float64(n), float64(wr) / 1024 / float64(n), nil
}

// stageStats summarises the spans: mean microseconds per call of each
// stage, core encode throughput, and the per-request stage totals of
// the traces whose ID starts with prefix.
type stageStats struct {
	meanUS     map[string]float64
	encodeMBps float64
	perRequest []float64 // µs, one per request trace under prefix
}

func summarize(spans []span, prefix string, encBits int64) stageStats {
	sum := map[string]int64{}
	cnt := map[string]int{}
	perReq := map[string]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		d := s.End - s.Start
		sum[s.Name] += d
		cnt[s.Name]++
		if strings.HasPrefix(s.Trace, prefix) {
			perReq[s.Trace] += d
		}
	}
	st := stageStats{meanUS: map[string]float64{}}
	for name, n := range cnt {
		st.meanUS[name] = float64(sum[name]) / float64(n) / 1e3
	}
	if ns := sum[stEncode]; ns > 0 {
		st.encodeMBps = float64(encBits) / 8 / (float64(ns) / 1e9) / 1e6
	}
	for _, ns := range perReq {
		st.perRequest = append(st.perRequest, float64(ns)/1e3)
	}
	return st
}
