package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations v
// with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i, with bucket 0 for
// v <= 0. 64-bit values need 65 buckets.
const histBuckets = 65

// Histogram is a fixed-shape log2 histogram: no configuration, no
// allocation on observe, mergeable by addition. The log2 shape trades
// resolution for a total absence of tuning — good enough to separate
// "microseconds" from "milliseconds" in stage timings.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value. Negative values clamp to 0 — the index
// never derives from an untrusted v's bit pattern and the sum never
// takes it, so a hostile or buggy duration (math.MinInt64 included)
// can neither index outside the bucket array nor wrap _sum. No-op on a
// nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	if v > 0 {
		// bits.Len64 of a positive int64 is at most 63, safely inside
		// the 65-bucket array.
		i = bits.Len64(uint64(v))
		h.sum.Add(v)
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}
