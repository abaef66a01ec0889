// Package metrics provides the small counter/histogram registry the
// CellPilot observability layer aggregates into: fixed-bucket histograms
// (latency, payload size, bandwidth, queue depth) and monotonic counters,
// keyed by name. Everything is plain host-side arithmetic — observing a
// value costs zero virtual time, so an instrumented run reproduces the
// timings of an uninstrumented one exactly.
//
// The registry is used from simulation context only, which is
// single-threaded by construction, so no locking is needed.
package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonic count.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d int64) { c.n += d }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n }

// Gauge is an instantaneous value: a queue watermark, a utilization
// percentage, a resident count. Unlike a Counter it can move both ways.
type Gauge struct {
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add shifts the value by d.
func (g *Gauge) Add(d float64) { g.v += d }

// SetMax raises the value to v if v is larger — watermark tracking.
func (g *Gauge) SetMax(v float64) {
	if v > g.v {
		g.v = v
	}
}

// Value reports the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-bucket histogram: bounds[i] is the inclusive upper
// edge of bucket i, with one implicit overflow bucket past the last bound.
type Histogram struct {
	bounds []float64
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram creates a histogram over the given ascending bucket upper
// bounds. It panics on empty or unsorted bounds — bucket layouts are
// compiled into the program, so a bad one is a programming error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: bucket bounds not ascending at %d: %g <= %g", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]int64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// ExpBuckets builds n bounds starting at start, each factor times the
// previous — the layout used for latency and bandwidth histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets builds n bounds start, start+width, ... — the layout used
// for queue-depth histograms.
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		panic("metrics: LinearBuckets needs width > 0, n > 0")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean reports the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// Counts returns a copy of the per-bucket counts; the last entry is the
// overflow bucket.
func (h *Histogram) Counts() []int64 { return append([]int64(nil), h.counts...) }

// Quantile estimates the q-quantile (0..1) by linear interpolation within
// the containing bucket, clamped to the observed min/max. It returns 0
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		if float64(cum+c) < target {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		frac := 0.0
		if c > 0 {
			frac = (target - float64(cum)) / float64(c)
		}
		v := lo + frac*(hi-lo)
		if v < h.Min() {
			v = h.Min()
		}
		if v > h.Max() {
			v = h.Max()
		}
		return v
	}
	return h.Max()
}

// String renders a one-line digest.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "count=0"
	}
	return fmt.Sprintf("count=%d mean=%.2f min=%.2f p50=%.2f p99=%.2f max=%.2f",
		h.count, h.Mean(), h.Min(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// Registry is a named collection of counters, gauges and histograms.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// LookupHistogram returns the named histogram, or nil.
func (r *Registry) LookupHistogram(name string) *Histogram { return r.hists[name] }

// GaugeNames reports the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	out := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Clone returns a deep copy of the registry: an immutable snapshot that
// can cross goroutine boundaries (the live-export path publishes clones
// to the HTTP handler while the simulation keeps mutating the original).
func (r *Registry) Clone() *Registry {
	out := NewRegistry()
	for name, c := range r.counters {
		out.counters[name] = &Counter{n: c.n}
	}
	for name, g := range r.gauges {
		out.gauges[name] = &Gauge{v: g.v}
	}
	for name, h := range r.hists {
		out.hists[name] = &Histogram{
			bounds: append([]float64(nil), h.bounds...),
			counts: append([]int64(nil), h.counts...),
			count:  h.count, sum: h.sum, min: h.min, max: h.max,
		}
	}
	return out
}

// CounterNames reports the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	out := make([]string, 0, len(r.counters))
	for name := range r.counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HistogramNames reports the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	out := make([]string, 0, len(r.hists))
	for name := range r.hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Dump renders every metric as plain text, sorted by name within each
// section (counters, then gauges, then histograms).
func (r *Registry) Dump() string {
	var b strings.Builder
	for _, name := range r.CounterNames() {
		fmt.Fprintf(&b, "%-40s %d\n", name, r.counters[name].Value())
	}
	for _, name := range r.GaugeNames() {
		fmt.Fprintf(&b, "%-40s %g\n", name, r.gauges[name].Value())
	}
	for _, name := range r.HistogramNames() {
		fmt.Fprintf(&b, "%-40s %s\n", name, r.hists[name])
	}
	return b.String()
}

// histogramJSON is the wire form of a histogram.
type histogramJSON struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// MarshalJSON renders the registry as
// {"counters": {...}, "gauges": {...}, "histograms": {...}} with the keys
// of every object emitted in explicit sorted order, so two snapshots of
// the same state are byte-identical and diffable — goldens built on
// /metrics.json never churn from map-iteration order.
func (r *Registry) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"counters":{`)
	for i, name := range r.CounterNames() {
		writeKey(&b, i, name)
		fmt.Fprintf(&b, "%d", r.counters[name].Value())
	}
	b.WriteString(`},"gauges":{`)
	for i, name := range r.GaugeNames() {
		writeKey(&b, i, name)
		v, err := json.Marshal(r.gauges[name].Value())
		if err != nil {
			return nil, err
		}
		b.Write(v)
	}
	b.WriteString(`},"histograms":{`)
	for i, name := range r.HistogramNames() {
		writeKey(&b, i, name)
		h := r.hists[name]
		v, err := json.Marshal(histogramJSON{
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			Mean: h.Mean(), P50: h.Quantile(0.5), P99: h.Quantile(0.99),
			Bounds: h.Bounds(), Counts: h.Counts(),
		})
		if err != nil {
			return nil, err
		}
		b.Write(v)
	}
	b.WriteString("}}")
	return b.Bytes(), nil
}

// writeKey emits the separator and quoted key for the i-th object member.
func writeKey(b *bytes.Buffer, i int, name string) {
	if i > 0 {
		b.WriteByte(',')
	}
	k, _ := json.Marshal(name)
	b.Write(k)
	b.WriteByte(':')
}
