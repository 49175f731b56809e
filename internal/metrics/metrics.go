// Package metrics is the coordinator-side instrumentation registry:
// counters, gauges and fixed-bucket latency histograms fed from the
// scheduler hot paths and rendered on demand as Prometheus text
// exposition (prom.go).
//
// The package is deliberately hand-rolled — no client_golang, no new
// dependencies — and deliberately cheap on the write side: instrument
// updates are atomic operations, so instrumentation lives on the
// coordinator's control plane without ever touching the
// zero-allocation data plane the benchmark exists to measure.
//
// The registry only holds values and renders them; it never runs
// caller code. An owner that derives a gauge from its own state samples
// it and calls Set. So the package's locks — the registry mutex
// (registration, render) and each CounterVec's mutex (With, Total,
// render) — nest only each other, and an owner may update, register or
// render under any lock of its own.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taskbench/internal/stats"
)

// Counter is a monotonically increasing value. The zero Counter is not
// usable; obtain one from Registry.Counter or CounterVec.With.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error and are
// ignored: a counter never goes down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value that can go up and down. Prometheus
// gauges are floats, and so is this one: heartbeat age is a fraction
// of a second.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // float64 bits of the value
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the value by delta.
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat adds v to the float64 stored as bits in a, with a CAS loop.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// CounterVec is a family of counters partitioned by one label — the
// per-shape config cache counters. Children are created on first use
// and never pruned, so the label set is every value ever passed to
// With: for the coordinator, every shape submitted over its lifetime.
type CounterVec struct {
	name, help, label string

	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for the label value, creating it on
// first use. Safe for concurrent use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[value]
	if c == nil {
		c = &Counter{name: v.name, help: v.help}
		v.children[value] = c
	}
	return c
}

// Total sums every child — the aggregate the wire-level StatsInfo
// carries when the per-label split would not fit a flat snapshot.
func (v *CounterVec) Total() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var sum int64
	for _, c := range v.children {
		sum += c.Value()
	}
	return sum
}

// snapshotChildren returns (label value, count) pairs sorted by label.
func (v *CounterVec) snapshotChildren() []labeledValue {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]labeledValue, 0, len(v.children))
	for value, c := range v.children {
		out = append(out, labeledValue{value, c.Value()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].label < out[b].label })
	return out
}

type labeledValue struct {
	label string
	value int64
}

// Histogram is a fixed-bucket histogram of float64 observations
// (latencies in seconds, by convention). Buckets are cumulative-le in
// exposition but stored as per-bucket counts; bounds are upper bounds,
// with an implicit +Inf overflow bucket. Observe is two atomic adds
// plus a CAS loop for the sum — safe for concurrent use, cheap enough
// for the control plane's per-job paths.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits of the observation sum
}

// LatencyBuckets is the default latency bucket ladder, in seconds:
// 1ms to 5 minutes, roughly 2.5× per step — wide enough that a
// cluster job (milliseconds to minutes) lands in a meaningful bucket
// at both ends.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le semantics
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) as the
// upper bound of the bucket holding the rank'th observation
// (stats.NearestRank, the rule internal/timeline applies to raw
// samples, so the two agree whenever observations sit on bucket
// bounds). An observation past the last bound reports the last finite
// bound (the histogram cannot say more). Returns 0 when empty;
// renderers show "-" for an empty histogram, never a fabricated 0.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// Snapshot captures a consistent-enough view of the histogram: counts
// are read once each, so a snapshot taken mid-Observe may be off by
// the in-flight observation but never corrupt.
func (h *Histogram) Snapshot() HistogramData {
	d := HistogramData{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		d.Counts[i] = c
		d.Count += c
	}
	return d
}

// HistogramData is a point-in-time copy of a histogram: per-bucket
// counts (not cumulative), the implicit overflow bucket last.
type HistogramData struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1; last is the +Inf overflow
	Count  int64
	Sum    float64
}

// Quantile is the nearest-rank quantile over the bucketed counts; see
// Histogram.Quantile for the convention.
func (d HistogramData) Quantile(q float64) float64 {
	if d.Count == 0 || len(d.Bounds) == 0 {
		return 0
	}
	rank := int64(stats.NearestRank(int(d.Count), q))
	var cum int64
	for i, c := range d.Counts {
		cum += c
		if cum >= rank {
			if i < len(d.Bounds) {
				return d.Bounds[i]
			}
			break
		}
	}
	return d.Bounds[len(d.Bounds)-1]
}

// Registry holds named instruments. Registration happens at
// construction time (duplicate names panic: a name collision is a
// programming error, not a runtime condition); rendering iterates
// instruments sorted by name.
type Registry struct {
	mu    sync.Mutex
	names map[string]struct{}

	counters   []*Counter
	gauges     []*Gauge
	vecs       []*CounterVec
	histograms []*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]struct{}{}}
}

func (r *Registry) claim(name string) {
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.names[name] = struct{}{}
}

// Counter registers and returns a counter. Counter names end in
// _total by Prometheus convention; the registry does not enforce it.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	c := &Counter{name: name, help: help}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers and returns a gauge, initially 0.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	g := &Gauge{name: name, help: help}
	r.gauges = append(r.gauges, g)
	return g
}

// CounterVec registers a one-label counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	v := &CounterVec{name: name, help: help, label: label, children: map[string]*Counter{}}
	r.vecs = append(r.vecs, v)
	return v
}

// Histogram registers a fixed-bucket histogram. bounds must be sorted
// ascending; nil selects LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) || len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q: bounds must be non-empty and sorted", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	h := &Histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.histograms = append(r.histograms, h)
	return h
}
