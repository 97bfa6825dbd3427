package pthread_test

import (
	"testing"

	"spthreads/pthread"
)

// TestNativeThreadAllocBudget pins what one native thread costs the Go
// heap through the public API, so the per-thread record cannot quietly
// regrow into several objects. A binary fork → exit → join tree at
// p = 1 is run at two depths and the difference taken, which cancels
// the run's fixed set-up. The two objects per thread are the *Thread
// handle, which holds the child's T and its body, and this test's own
// body closure. Below pthread nothing is allocated per thread: the
// ready store (per-worker shard heaps) holds the thread record itself,
// and the record and the carrier coroutine are recycled (record arenas,
// pooled carriers) once the pools are warm.
func TestNativeThreadAllocBudget(t *testing.T) {
	perThreadAllocs(t, nativeCfg(1), 2)
}

// TestSimThreadAllocBudget is the simulator's twin. The three objects
// per thread are the exec adapter's child wrapper, which is also the
// machine-level body, the *Thread handle and this test's body closure.
// The machine's thread record (header and simulator state) is recycled
// through the machine's free list once joined, and the policy's
// ready-structure entry is reused with it; the carrier coroutine is
// pooled. None of the three costs anything per thread once warm.
func TestSimThreadAllocBudget(t *testing.T) {
	cfg := nativeCfg(1)
	cfg.Backend = pthread.BackendSim
	perThreadAllocs(t, cfg, 3)
}

// perThreadAllocs fails t when a thread costs more than budget heap
// objects on cfg's backend.
func perThreadAllocs(t *testing.T, cfg pthread.Config, budget int) {
	t.Helper()
	tree := func(depth int) (threads int, allocs float64) {
		var node func(tt *pthread.T, d int)
		node = func(tt *pthread.T, d int) {
			if d == 0 {
				return
			}
			l := tt.Create(func(ct *pthread.T) { node(ct, d-1) })
			r := tt.Create(func(ct *pthread.T) { node(ct, d-1) })
			tt.MustJoin(l)
			tt.MustJoin(r)
		}
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := pthread.Run(cfg, func(tt *pthread.T) { node(tt, depth) }); err != nil {
				t.Fatal(err)
			}
		})
		return 1<<(depth+1) - 2, allocs
	}
	nSmall, aSmall := tree(6)
	nBig, aBig := tree(11)
	per := (aBig - aSmall) / float64(nBig-nSmall)
	t.Logf("%s: %.3f objects per thread (%d threads: %.0f, %d threads: %.0f)", cfg.Backend, per, nSmall, aSmall, nBig, aBig)
	// The slack covers amortised growth (the pools, the policy's own
	// slices), which is a few objects per run, not per thread.
	if per > float64(budget)+0.05 {
		t.Errorf("%.3f heap objects per %s thread, budget %d", per, cfg.Backend, budget)
	}
}
