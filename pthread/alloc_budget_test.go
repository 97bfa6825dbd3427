package pthread_test

import (
	"testing"

	"spthreads/pthread"
)

// TestNativeThreadAllocBudget pins what one native thread costs the Go
// heap through the public API, so the per-thread record cannot quietly
// regrow into several objects. A binary fork → exit → join tree at
// p = 1 is run twice and six times in a row in one run, and the
// difference taken: that cancels the run's fixed set-up and the growth
// of its pools up to the run's peak of live threads, which the first
// trees reach and the later ones find warm. The two objects per thread
// are the *Thread handle, which holds the child's T and its body, and
// this test's own body closure. Below pthread nothing is allocated per
// thread: the ready store (per-worker shard deques) holds the thread
// record itself, and the record and the carrier coroutine are recycled
// (record arenas, pooled carriers) once the pools are warm.
func TestNativeThreadAllocBudget(t *testing.T) {
	perThreadAllocs(t, nativeCfg(1), 2)
}

// TestSimThreadAllocBudget is the simulator's twin, run direct and with
// the two-level batched scheduler (SchedBatch 4 at p = 4, whose
// scheduler passes deal each batch into the Q_outs of every hungry
// processor). The two objects per thread are native's: the *Thread
// handle and this test's body closure. The machine hands pthread its
// own thread record as the child's handle and recycles it through its
// free list once joined, with the policy's ready-structure entry; the
// carrier coroutine is pooled; and a scheduler pass reuses its hungry
// list, the policy's batch and every Q_out.
func TestSimThreadAllocBudget(t *testing.T) {
	cfg := nativeCfg(1)
	cfg.Backend = pthread.BackendSim
	perThreadAllocs(t, cfg, 2)
	cfg.Procs, cfg.SchedBatch = 4, 4
	perThreadAllocs(t, cfg, 2)
}

// perThreadAllocs fails t when a thread costs more than budget heap
// objects on cfg's backend.
func perThreadAllocs(t *testing.T, cfg pthread.Config, budget int) {
	t.Helper()
	const depth = 9
	trees := func(reps int) (threads int, allocs float64) {
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
			_, err := pthread.Run(cfg, func(tt *pthread.T) {
				for range reps {
					node(tt, depth)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		return reps * (1<<(depth+1) - 2), allocs
	}
	nSmall, aSmall := trees(2)
	nBig, aBig := trees(6)
	per := (aBig - aSmall) / float64(nBig-nSmall)
	t.Logf("%s p=%d batch=%d: %.3f objects per thread (%d threads: %.0f, %d threads: %.0f)",
		cfg.Backend, cfg.Procs, cfg.SchedBatch, per, nSmall, aSmall, nBig, aBig)
	// The slack covers amortised growth (the policy's own slices), which
	// is a few objects per run, not per thread.
	if per > float64(budget)+0.05 {
		t.Errorf("%.3f heap objects per %s thread at p=%d batch=%d, budget %d", per, cfg.Backend, cfg.Procs, cfg.SchedBatch, budget)
	}
}
