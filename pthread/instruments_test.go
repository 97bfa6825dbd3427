package pthread_test

import (
	"slices"
	"testing"

	"spthreads/pthread"
)

// The instrument catalogue (DESIGN.md "Instruments"): every name a run
// registers, per backend and mode. Each one is read by a test, a
// benchmark row, pttrace or a harness experiment, so renaming one that a
// reader looks up by string, or adding one nobody reads, fails here.
var (
	simCore    = []string{"sched.dispatch.wait", "sched.dispatches", "sched.dummy.forks", "sched.lock.wait", "sched.quota.preempts"}
	steal      = []string{"sched.steal.count", "sched.steal.window_reject"}
	nativeCore = []string{"sched.dispatch.wait", "sched.dispatches", "sched.dispatches.w0", "sched.dispatches.w1",
		"sched.dummy.forks", "sched.lock.wait", "sched.quota.preempts", "sched.resume.handoff"}
)

// instrumentProgram forks, joins, contends on a mutex and allocates.
func instrumentProgram(t *pthread.T) {
	var mu pthread.Mutex
	shared := 0
	work := func(c *pthread.T) {
		a := c.Malloc(4 << 10)
		for i := 0; i < 8; i++ {
			mu.Lock(c)
			shared++
			c.Charge(500)
			mu.Unlock(c)
			c.Par(func(g *pthread.T) { g.Charge(200) }, func(g *pthread.T) { g.Charge(300) })
		}
		c.Free(a)
	}
	t.Par(work, work, work, work)
	if shared != 32 {
		panic("lost an update under the mutex")
	}
}

// TestInstrumentNames runs one small program per backend and mode with
// a registry attached and compares the registered names with the
// catalogue. The ADF placeholder gauge is on the sim only: the native
// backend never drives the policy, so it would read 0 there.
func TestInstrumentNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  pthread.Config
		want [][]string
	}{
		{"sim/adf", pthread.Config{Policy: pthread.PolicyADF}, [][]string{simCore, {"adf.placeholders"}}},
		{"sim/adf-shard", pthread.Config{Policy: pthread.PolicyADFShard}, [][]string{simCore, steal, {"adf.placeholders"}}},
		{"sim/fifo", pthread.Config{Policy: pthread.PolicyFIFO}, [][]string{simCore}},
		{"sim/adf-batch", pthread.Config{Policy: pthread.PolicyADF, SchedBatch: 4}, [][]string{simCore, {"adf.placeholders", "sched.batch.passes"}}},
		{"native/adf", pthread.Config{Backend: pthread.BackendNative, Policy: pthread.PolicyADF}, [][]string{nativeCore, steal}},
		{"native/fifo", pthread.Config{Backend: pthread.BackendNative, Policy: pthread.PolicyFIFO}, [][]string{nativeCore, steal[:1]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := pthread.NewMetrics()
			tc.cfg.Procs, tc.cfg.Metrics = 2, reg
			if _, err := pthread.Run(tc.cfg, instrumentProgram); err != nil {
				t.Fatal(err)
			}
			want := slices.Sorted(slices.Values(slices.Concat(tc.want...)))
			if got := reg.Names(); !slices.Equal(got, want) {
				t.Errorf("instruments\n got %q\nwant %q", got, want)
			}
			if g, ok := reg.Snapshot().Gauges["adf.placeholders"]; ok && g.Max == 0 {
				t.Error("adf.placeholders registered but its max is 0")
			}
		})
	}
}
