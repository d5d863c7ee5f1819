// Package telemetry is the node- and fleet-wide observability subsystem: a
// dependency-free metrics layer (counters, gauges, histograms with atomic
// hot-path increments) plus a bounded structured event journal, exposed in
// Prometheus text format over the REST servers (GET /metrics, GET /events).
//
// The design splits cost between the two sides of a metric's life:
//
//   - Recording is wait-free. A Counter or Gauge is one atomic word; a
//     Histogram observation is one bounds scan plus two atomic adds. Hot
//     datapath code embeds these primitives directly and pays no map lookup,
//     no lock and no allocation per packet.
//   - Reading is pull-based. A scrape walks the registered Collectors, each
//     of which snapshots its owner's primitives into an Exposition that is
//     then rendered as Prometheus text (version 0.0.4).
//
// Fleet aggregation reuses the same text format: the global orchestrator
// scrapes each node's /metrics and merges the samples into one Exposition
// with a per-node label (Exposition.AddText), so one scrape of the global
// server observes the whole fleet.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; increments are a single atomic add.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative-style buckets, like a
// Prometheus histogram: counts[i] holds observations <= bounds[i] and >
// bounds[i-1] (the exposition accumulates them), counts[len(bounds)] holds
// the overflow. Observe is lock-free: one bounds scan, one bucket add and a
// CAS loop on the float sum — cheap enough for sampled datapath use.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
// A final +Inf bucket is implicit.
func NewHistogram(bounds ...float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// LatencyBuckets is the default bucket layout for control-plane operation
// latencies: 1µs to ~4s in powers of four.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
		1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4,
	}
}

// DatapathLatencyBuckets is the bucket layout for per-packet pipeline
// latencies, whose interesting range sits well under a microsecond: a
// cached-verdict replay runs in hundreds of nanoseconds and a slow-path
// walk of a large table in single-digit microseconds, so the low buckets are
// ns-scale and the tail covers stalls up to ~16ms.
func DatapathLatencyBuckets() []float64 {
	return []float64{
		64e-9, 128e-9, 256e-9, 512e-9,
		1e-6, 2e-6, 4e-6, 8e-6, 16e-6, 64e-6, 256e-6, 1e-3, 16e-3,
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram, in per-bucket
// (non-cumulative) counts; the exposition renders the cumulative form.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; one extra count holds the
	// overflow (+Inf) bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies the histogram state. Concurrent Observes may straddle the
// copy; the per-bucket counts are each individually consistent, which is the
// same guarantee a Prometheus scrape of a live histogram gives.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Count:  h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
