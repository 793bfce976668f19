package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair. Labels distinguish instances of the
// same metric family (e.g. requests_total{route="/v1/query"}).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates exposition behaviour.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// metric is one registered instance: a family name + label set + value.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label

	counter *Counter
	count   func() int64
	fn      func() float64
	hist    *Histogram
}

// Registry is a concurrent metrics registry. Registration is idempotent
// per (name, labels) — re-registering returns the existing instance — so
// hot paths may register lazily without coordination. A Registry is safe
// for concurrent registration, observation and exposition.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	index   map[string]*metric // name + label signature
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metric)}
}

func labelSig(name string, labels []Label) string {
	s := name
	for _, l := range labels {
		s += "\x00" + l.Key + "\x01" + l.Value
	}
	return s
}

func (r *Registry) register(m *metric) *metric {
	sig := labelSig(m.name, m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.index[sig]; ok {
		return existing
	}
	r.index[sig] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or returns the existing) monotonically increasing
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(&metric{name: name, help: help, kind: kindCounter, labels: labels, counter: &Counter{}})
	return m.counter
}

// CounterFunc registers a counter whose value is read at exposition time:
// how a subsystem's cumulative counts (evserve, evstore, plan caches,
// admission, the router) surface without restructuring their counters.
// fn must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(&metric{name: name, help: help, kind: kindCounterFunc, labels: labels, count: fn})
}

// GaugeFunc registers a gauge whose value is computed at exposition time:
// a level (entries, in-flight work, uptime), never a cumulative count.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, labels: labels, fn: fn})
}

// Histogram registers (or returns the existing) exact-quantile histogram
// with the given sample capacity (0 uses DefaultHistogramCapacity).
func (r *Registry) Histogram(name, help string, capacity int, labels ...Label) *Histogram {
	m := r.register(&metric{name: name, help: help, kind: kindHistogram, labels: labels, hist: NewHistogram(capacity)})
	return m.hist
}

// Counter is a lock-free monotonic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefaultHistogramCapacity is the sample-ring size a zero capacity
// requests: quantiles are exact up to this many observations and computed
// over the most recent window beyond it.
const DefaultHistogramCapacity = 4096

// Histogram is a lock-free histogram with exact quantiles: observations
// land in a fixed ring of samples via an atomic cursor, so up to its
// capacity the quantiles are exact over everything observed, and past
// capacity (saturation) they are exact over the most recent window.
// Count and Sum always cover every observation.
type Histogram struct {
	samples []atomic.Int64
	// count is the number of observations and the ring write position.
	count atomic.Int64
	sum   atomic.Int64
}

// NewHistogram builds a histogram with the given sample capacity
// (0 or negative uses DefaultHistogramCapacity).
func NewHistogram(capacity int) *Histogram {
	if capacity <= 0 {
		capacity = DefaultHistogramCapacity
	}
	return &Histogram{samples: make([]atomic.Int64, capacity)}
}

// Observe records one value. Values are int64 by design: the fleet
// observes microseconds and counts, and integer samples keep the ring
// atomic without float bit-punning.
func (h *Histogram) Observe(v int64) {
	i := h.count.Add(1) - 1
	h.samples[i%int64(len(h.samples))].Store(v)
	h.sum.Add(v)
}

// Count returns the number of observations (including any that have
// rotated out of the sample ring).
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// window snapshots the live samples: all of them before saturation, the
// whole ring after.
func (h *Histogram) window() []int64 {
	n := h.count.Load()
	if n > int64(len(h.samples)) {
		n = int64(len(h.samples))
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = h.samples[i].Load()
	}
	return out
}

// Quantiles returns the exact qs-quantiles (nearest-rank: the smallest
// sample such that at least ceil(q*n) samples are <= it) over the current
// sample window, from one snapshot and sort, so they are consistent within
// one exposition. Each q is clamped to [0, 1]; q=0 is the minimum, q=1 the
// maximum. Every quantile is 0 before any observation.
func (h *Histogram) Quantiles(qs ...float64) []int64 {
	snap := h.window()
	if len(snap) == 0 {
		return make([]int64, len(qs))
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	out := make([]int64, len(qs))
	for i, q := range qs {
		out[i] = sortedQuantile(snap, q)
	}
	return out
}

func sortedQuantile(sorted []int64, q float64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
