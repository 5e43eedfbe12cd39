// Package metrics is a small concurrency-safe registry of counters,
// gauges, and latency histograms for the NMF runtime: collective
// latencies per category, per-rank traffic, NLS inner-iteration
// counts, per-iteration relative error. Unlike perf.Ledger (one
// owner, no locks) a Registry is shared by every rank goroutine of a
// run, so its instruments are safe for concurrent use: counters and
// gauges are atomics, histograms take a short mutex per observation.
//
// Snapshots export the whole registry as text (for terminals) or via
// encoding/json (for run reports); histogram quantiles are estimated
// from exponential buckets with ~19% resolution (4 buckets per
// doubling), which is plenty to separate a 1 µs barrier from a 100 µs
// straggler.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float64 value (last write wins).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: bucket i covers (lo·r^(i−1), lo·r^i] with
// r = 2^(1/4); bucket 0 additionally absorbs everything ≤ lo. With
// 192 buckets the range spans lo=1e-9 up to ~1e5, covering nanosecond
// latencies through multi-hour totals.
const (
	histBuckets = 192
	histLo      = 1e-9
)

// histRatio is the per-bucket growth factor, 2^(1/4).
var histRatio = math.Pow(2, 0.25)

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= histLo {
		return 0
	}
	b := int(math.Ceil(math.Log(v/histLo) / math.Log(histRatio)))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 { return histLo * math.Pow(histRatio, float64(i)) }

// Histogram accumulates a distribution of non-negative float64
// samples (typically seconds) in exponential buckets.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	h.mu.Unlock()
}

// quantileLocked estimates the q-quantile (0 ≤ q ≤ 1) from the
// buckets: the upper bound of the bucket where the cumulative count
// crosses q·total, clamped to the exact observed [min, max]. It
// returns 0 with no observations. The caller holds h.mu.
func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			v := bucketUpper(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// stats returns a consistent summary under one lock acquisition.
func (h *Histogram) stats() HistogramStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
		s.P50 = h.quantileLocked(0.5)
		s.P90 = h.quantileLocked(0.9)
		s.P99 = h.quantileLocked(0.99)
	}
	return s
}

// Registry holds named instruments. Lookups get-or-create under a
// mutex; the returned instruments may be cached and used lock-free
// (counters, gauges) or with their own short lock (histograms).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// HistogramStats is the exported summary of one histogram.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every instrument, ready for
// JSON encoding into run reports.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot captures the current state of all instruments.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.Unlock()

	s := &Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]float64, len(gauges)),
		Histograms: make(map[string]HistogramStats, len(hists)),
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = h.stats()
	}
	return s
}

// WriteText renders the snapshot as an aligned, name-sorted listing.
func (s *Snapshot) WriteText(w io.Writer) {
	for _, name := range sortedKeys(s.Counters) {
		fmt.Fprintf(w, "counter    %-42s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(w, "gauge      %-42s %g\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(w, "histogram  %-42s count=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g\n",
			name, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
