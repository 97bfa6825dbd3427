// Package metrics is a lightweight registry of named counters, gauges,
// and histograms for scheduler-internal observability.
//
// The design goal is zero cost when observability is detached: every
// instrument method is nil-safe, so instrumented code resolves its
// handles once (from a possibly-nil *Registry) and each hot-path update
// costs a single nil check when no registry is attached. Instrument
// updates are atomic, so the native backend's workers can hammer the
// same counter or histogram concurrently off the scheduler lock. The
// registry maps are guarded by a mutex taken only on the cold paths —
// instrument resolution and Snapshot — so a snapshot may be taken
// mid-run, while every writer is hot, without blocking any instrument
// update: reads are race-clean atomic loads. A mid-run
// snapshot of a histogram may observe a momentarily torn aggregate
// (a count without its sum); Snapshot clamps the derived fields so the
// result is monitoring-grade, and a quiesced snapshot is exact. None of
// the instruments ever touches virtual time, preserving the simulator's
// determinism invariant.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of instruments. The zero of *Registry
// (nil) is a valid "detached" registry: it hands out nil instruments
// whose operations are no-ops.
type Registry struct {
	// mu guards the maps only: instrument resolution (cold — handles are
	// resolved once) and snapshot iteration. Instrument updates never
	// touch it.
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty attached registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter with the given name.
// A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge with the given name.
// A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		g.min.Store(math.MaxInt64)
		g.max.Store(math.MinInt64)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram with the given
// name. A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		h.min.Store(math.MaxInt64)
		r.hists[name] = h
	}
	return h
}

// atomicMax raises a to at least v (lock-free CAS loop).
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// atomicMin lowers a to at most v.
func atomicMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Counter is a monotonically increasing event count.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous level that also tracks its extremes, so a
// snapshot can report e.g. the maximum placeholder-list length over a
// run, not just the final one. Concurrent Set/Add are safe; extremes
// are maintained with CAS loops. (Under concurrent Sets the "current"
// level is whichever write landed last, which is the only coherent
// meaning a concurrent gauge level has.)
type Gauge struct {
	cur, max atomic.Int64
	min      atomic.Int64
	set      atomic.Bool
}

// Set records the gauge's current level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.cur.Store(v)
	atomicMax(&g.max, v)
	atomicMin(&g.min, v)
	g.set.Store(true)
}

// Add moves the gauge by d.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	v := g.cur.Add(d)
	atomicMax(&g.max, v)
	atomicMin(&g.min, v)
	g.set.Store(true)
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.cur.Load()
}

// Max returns the largest level ever set (0 if never set).
func (g *Gauge) Max() int64 {
	if g == nil || !g.set.Load() {
		return 0
	}
	return g.max.Load()
}

// histBuckets is the number of power-of-two histogram buckets; bucket i
// counts observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds v <= 0).
const histBuckets = 64

// Histogram accumulates a distribution of int64 observations (virtual
// cycles on the sim, wall nanoseconds on the native backend) in
// power-of-two buckets. Concurrent Observe is safe; each field updates
// atomically, so a racing reader may see a momentarily torn aggregate
// (count without its sum). That is acceptable for live sampling —
// Snapshot clamps the derived fields — and a snapshot taken after
// writers quiesce is exact.
type Histogram struct {
	count, sum atomic.Int64
	min, max   atomic.Int64
	buckets    [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	atomicMin(&h.min, v)
	atomicMax(&h.max, v)
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1): within its
// power-of-two bucket [lo, 2lo) it takes the bucket's observations as
// spread evenly and interpolates by rank, clamped to the maximum.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	count, max := h.count.Load(), h.max.Load()
	target := int64(math.Ceil(q * float64(count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if seen += n; seen >= target {
			if i == 0 {
				return 0
			}
			lo, rank := int64(1)<<uint(i-1), target-(seen-n)
			return min(lo+int64(float64(lo-1)*float64(rank)/float64(n)), max)
		}
	}
	return max
}

// GaugeValue is a gauge's state in a snapshot.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistogramValue is a histogram's state in a snapshot. P50/P90/P99 are
// interpolated within power-of-two buckets.
type HistogramValue struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// suitable for embedding in run statistics and for JSON output (map keys
// marshal in sorted order, so output is deterministic).
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue     `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state (nil for a nil
// registry). It is safe to take while writers are hot: every instrument
// field is loaded atomically, so the snapshot is race-clean, though a
// histogram caught mid-Observe may show a count one ahead of its sum
// (the derived mean and extremes are clamped to stay coherent). A
// snapshot taken after writers quiesce is exact.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]GaugeValue, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramValue, len(r.hists))
		for name, h := range r.hists {
			hv := HistogramValue{Count: h.Count(), Sum: h.Sum()}
			if hv.Count > 0 {
				hv.Min, hv.Max = h.min.Load(), h.max.Load()
				// A mid-run snapshot can catch an Observe between its
				// count bump and its min/max updates; clamp so the
				// extremes stay coherent rather than reporting the
				// MaxInt64 sentinel of a never-lowered min.
				if hv.Min > hv.Max {
					hv.Min = hv.Max
				}
				hv.Mean = float64(hv.Sum) / float64(hv.Count)
				hv.P50 = h.Quantile(0.50)
				hv.P90 = h.Quantile(0.90)
				hv.P99 = h.Quantile(0.99)
			}
			s.Histograms[name] = hv
		}
	}
	return s
}

// Names returns every instrument name in the registry, sorted (for
// tests and reports).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
