package metrics_test

import (
	"encoding/json"
	"testing"

	"spthreads/internal/metrics"
)

// TestNilRegistryIsNoOp: every instrument obtained from a nil registry
// must be callable and inert — this is the "zero cost when unattached"
// contract the machine hot path relies on.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *metrics.Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Inc()
	c.Add(10)
	g.Set(5)
	g.Add(3)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 {
		t.Errorf("nil instruments retained state: c=%d g=%d h=%d", c.Value(), g.Value(), h.Count())
	}
	if s := r.Snapshot(); s != nil {
		t.Errorf("nil registry snapshot = %+v, want nil", s)
	}
	if n := r.Names(); n != nil {
		t.Errorf("nil registry names = %v, want nil", n)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := metrics.NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("events") != c {
		t.Error("Counter not idempotent per name")
	}

	g := r.Gauge("level")
	g.Set(10)
	g.Add(-3)
	g.Set(42)
	g.Set(1)
	if g.Value() != 1 {
		t.Errorf("gauge value = %d, want 1", g.Value())
	}
	if g.Max() != 42 {
		t.Errorf("gauge max = %d, want 42", g.Max())
	}
}

func TestHistogram(t *testing.T) {
	r := metrics.NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 1106 {
		t.Errorf("sum = %d, want 1106", h.Sum())
	}
	if q := h.Quantile(0.5); q < 3 || q > 4 {
		t.Errorf("p50 = %d, want in [3,4] (bucket upper bound)", q)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Errorf("p100 = %d, want clamped to max 1000", q)
	}
	// Non-positive observations land in bucket 0 and quantile to 0.
	h2 := r.Histogram("neg")
	h2.Observe(0)
	h2.Observe(-5)
	if q := h2.Quantile(0.9); q != 0 {
		t.Errorf("non-positive quantile = %d, want 0", q)
	}
}

// TestHistogramQuantileShift: latencies spread log-uniformly over three
// power-of-two buckets, then shifted by 1.3x. p50 stays inside the
// bucket [2048, 4096) but must rise with them, by interpolating by rank
// within that bucket rather than reporting its upper bound.
func TestHistogramQuantileShift(t *testing.T) {
	r := metrics.NewRegistry()
	base, shifted := r.Histogram("base"), r.Histogram("shifted")
	for v := 1000.0; v < 8000; v *= 1.01 {
		base.Observe(int64(v))
		shifted.Observe(int64(1.3 * v))
	}
	if b, s := base.Quantile(0.5), shifted.Quantile(0.5); float64(s) < 1.15*float64(b) || s >= 4095 {
		t.Errorf("p50 %d before a 1.3x shift, %d after: want a rise of at least 15%% below 4095", b, s)
	}
}

// TestSnapshotJSONDeterministic: a snapshot marshals to identical JSON
// across calls (map keys are sorted by encoding/json), which the bench
// output relies on.
func TestSnapshotJSONDeterministic(t *testing.T) {
	r := metrics.NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(9)
	r.Histogram("h").Observe(7)
	s := r.Snapshot()
	j1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r.Snapshot())
	if string(j1) != string(j2) {
		t.Errorf("snapshots differ:\n%s\n%s", j1, j2)
	}
	if s.Counters["a"] != 1 || s.Counters["b"] != 2 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["z"].Value != 9 || s.Gauges["z"].Max != 9 {
		t.Errorf("gauge z = %+v", s.Gauges["z"])
	}
	hv := s.Histograms["h"]
	if hv.Count != 1 || hv.Sum != 7 || hv.Min != 7 || hv.Max != 7 || hv.Mean != 7 {
		t.Errorf("hist h = %+v", hv)
	}
}

func TestNames(t *testing.T) {
	r := metrics.NewRegistry()
	r.Histogram("h.one")
	r.Counter("c.one")
	r.Gauge("g.one")
	got := r.Names()
	want := []string{"c.one", "g.one", "h.one"}
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
