package pthread_test

import (
	"testing"

	"spthreads/pthread"
)

// TestNativeThreadAllocBudget pins what one native thread costs the Go
// heap through the public API, so the per-thread record cannot quietly
// regrow into several objects. A binary fork → exit → join tree at
// p = 1 is run at two depths and the difference taken, which cancels
// the run's fixed set-up. The three objects per thread are: below
// pthread, the policy's ready-structure entry; in pthread, the *Thread
// handle, which holds the child's T and its body; and this test's own
// body closure. The thread record and the goroutine with its mailbox
// are recycled (record arenas, pooled loops), so they cost nothing per
// thread once the pools are warm.
func TestNativeThreadAllocBudget(t *testing.T) {
	const budget = 3
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
			if _, err := pthread.Run(nativeCfg(1), func(tt *pthread.T) { node(tt, depth) }); err != nil {
				t.Fatal(err)
			}
		})
		return 1<<(depth+1) - 2, allocs
	}
	nSmall, aSmall := tree(6)
	nBig, aBig := tree(11)
	per := (aBig - aSmall) / float64(nBig-nSmall)
	t.Logf("%.3f objects per thread (%d threads: %.0f, %d threads: %.0f)", per, nSmall, aSmall, nBig, aBig)
	// The slack covers amortised growth (the pools, the policy's own
	// slices), which is a few objects per run, not per thread.
	if per > budget+0.05 {
		t.Errorf("%.3f heap objects per native thread, budget %d", per, budget)
	}
}
