// Package obs is the repository's zero-dependency telemetry layer: an
// atomic metrics registry (counters, gauges, log2-bucket histograms),
// span-based stage timing, and a structured JSON event sink.
//
// The package is built around one invariant: when telemetry is
// disabled the instrumented hot paths pay nothing beyond a single
// atomic pointer load. Active() returns nil when no registry is
// enabled, and every method in the package — Registry, Counter, Gauge,
// Histogram, Span — is a safe no-op on a nil receiver, so call sites
// never branch:
//
//	sp := obs.Active().Span("core.encode_set")
//	...
//	sp.Set("blocks", n).End()
//
// Registries are goroutine-safe; metrics update with atomics and the
// name → metric maps are guarded by a mutex taken only on first
// lookup per call site invocation (not per metric update).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns a named set of metrics, an optional structured-event
// sink, and the span ID sequence.
type Registry struct {
	start  time.Time
	spanID atomic.Int64
	sink   atomic.Pointer[sinkBox]

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string
}

// sinkBox wraps a Sink so the atomic pointer has a concrete type.
type sinkBox struct{ s Sink }

// NewRegistry returns an empty registry with no sink attached.
func NewRegistry() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// SetSink attaches (or, with nil, detaches) the structured-event sink.
func (r *Registry) SetSink(s Sink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sinkBox{s: s})
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Describe attaches a help string to the named metric, emitted as the
// Prometheus # HELP line. Nil-safe.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// Emit sends one structured event to the sink, stamped with the
// current time. It is a no-op on a nil registry or when no sink is
// attached.
func (r *Registry) Emit(typ, name string, fields map[string]any) {
	if r == nil {
		return
	}
	r.emit(Event{Type: typ, Name: name, Fields: fields})
}

func (r *Registry) emit(e Event) {
	box := r.sink.Load()
	if box == nil {
		return
	}
	if e.TimeUnixNano == 0 {
		e.TimeUnixNano = time.Now().UnixNano()
	}
	box.s.Emit(e)
}

// active is the process-wide registry; nil means telemetry is off.
var active atomic.Pointer[Registry]

// Enable installs r as the process-wide active registry. Enable(nil)
// is equivalent to Disable.
func Enable(r *Registry) { active.Store(r) }

// Disable turns telemetry off; subsequent Active calls return nil and
// all instrumentation reverts to no-ops.
func Disable() { active.Store(nil) }

// Active returns the enabled registry, or nil when telemetry is off.
// The call is one atomic load — cheap enough for any hot path.
func Active() *Registry { return active.Load() }
