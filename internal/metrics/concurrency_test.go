package metrics

import (
	"sync"
	"testing"
)

// These tests exist to run under -race: native workers observe wait
// histograms and move gauges concurrently off the scheduler lock, so
// the instruments must be safe for many simultaneous writers.

// TestCounterConcurrentAdd: N goroutines × M increments lose nothing.
func TestCounterConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	const goroutines, each = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*each {
		t.Fatalf("counter = %d, want %d", got, goroutines*each)
	}
}

// TestGaugeConcurrentSet: extremes survive racing writers — the max of
// everything set must be the largest value any goroutine wrote.
func TestGaugeConcurrentSet(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue.len")
	const goroutines = 16
	var wg sync.WaitGroup
	for i := 1; i <= goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := int64(0); v <= int64(i)*100; v++ {
				g.Set(v)
			}
		}(i)
	}
	wg.Wait()
	if got := g.Max(); got != goroutines*100 {
		t.Fatalf("gauge max = %d, want %d", got, goroutines*100)
	}
	if v := g.Value(); v < 0 || v > goroutines*100 {
		t.Fatalf("gauge value = %d out of written range", v)
	}
}

// TestGaugeConcurrentAdd: Add is a single atomic movement, so balanced
// +1/-1 pairs from many goroutines return the gauge to its start.
func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("threads.ready")
	const goroutines, each = 16, 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d after balanced adds, want 0", got)
	}
	if g.Max() < 1 {
		t.Fatalf("gauge max = %d, want >= 1", g.Max())
	}
}

// TestHistogramConcurrentObserve: counts, sums, extremes, and bucket
// totals all reconcile after concurrent observation.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sched.lock.wait")
	const goroutines, each = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				h.Observe(int64(i*each + j))
			}
		}(i)
	}
	wg.Wait()
	const n = goroutines * each
	if got := h.Count(); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
	if got, want := h.Sum(), int64(n)*(n-1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if got := h.min.Load(); got != 0 {
		t.Fatalf("min = %d, want 0", got)
	}
	if got := h.max.Load(); got != n-1 {
		t.Fatalf("max = %d, want %d", got, n-1)
	}
	var bucketed int64
	for i := range h.buckets {
		bucketed += h.buckets[i].Load()
	}
	if bucketed != n {
		t.Fatalf("bucket total = %d, want %d", bucketed, n)
	}
	if p99 := h.Quantile(0.99); p99 < h.Quantile(0.50) {
		t.Fatalf("p99 %d < p50 %d", p99, h.Quantile(0.50))
	}
}

// TestSnapshotWhileHot: a reader may snapshot the registry mid-run
// while every worker hammers counters, gauges, and histograms — reads
// must be race-clean and every observed aggregate must stay coherent:
// counts monotone, min <= max, mean within the written range.
func TestSnapshotWhileHot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sched.dispatches")
	g := r.Gauge("threads.live")
	h := r.Histogram("sched.lock.wait")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const writers = 8
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(j%1000 + 1))
			}
		}(i)
	}
	var lastCount int64
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if s == nil {
			t.Fatal("nil snapshot from attached registry")
		}
		if n := s.Counters["sched.dispatches"]; n < lastCount {
			t.Fatalf("counter went backwards: %d after %d", n, lastCount)
		} else {
			lastCount = n
		}
		if hv, ok := s.Histograms["sched.lock.wait"]; ok && hv.Count > 0 {
			if hv.Min > hv.Max {
				t.Fatalf("torn histogram extremes: min %d > max %d", hv.Min, hv.Max)
			}
			if hv.Mean < 0 || hv.Mean > 1001 {
				t.Fatalf("histogram mean %f outside written range [1,1000]", hv.Mean)
			}
		}
	}
	close(stop)
	wg.Wait()
	final := r.Snapshot()
	if final.Counters["sched.dispatches"] != c.Value() {
		t.Fatalf("quiesced snapshot %d != counter %d",
			final.Counters["sched.dispatches"], c.Value())
	}
}

// TestResolveWhileHot: resolving new instruments races snapshots and
// writers without corrupting the maps (the registry's cold-path mutex).
func TestResolveWhileHot(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(j))
				r.Histogram("h").Observe(int64(j + 1))
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	for i := 0; i < 100; i++ {
		if s := r.Snapshot(); s == nil {
			t.Fatal("nil snapshot")
		}
		r.Names()
	}
	close(stop)
	wg.Wait()
	if len(r.Names()) != 3 {
		t.Fatalf("names = %v, want 3 instruments", r.Names())
	}
}

// TestNilInstrumentsConcurrent: nil handles stay no-ops even when
// hammered concurrently (the detached-registry fast path).
func TestNilInstrumentsConcurrent(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("x"), r.Gauge("y"), r.Histogram("z")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(int64(j))
				h.Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments recorded something")
	}
}
