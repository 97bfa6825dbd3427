//go:build rmwcount

package native

// Run with: go test -tags rmwcount -run SharedRMW ./internal/native/

import (
	"sync/atomic"
	"testing"

	"spthreads/internal/core"
)

// TestSharedRMWLedger counts the read-modify-writes on run-global words
// (rmwcount.go) that a fork → exit → join and a Malloc / Free do at two
// processors: at most 3 per forked-and-joined thread (nextID, and the
// total's Add at the stack's alloc and free) and at most 1 per Malloc or
// Free (the total's Add). A hog thread holds one worker while the root
// builds the tree on the other, so no worker steals, idles or signals
// while the counts are taken: the ledger is the fork path's alone.
func TestSharedRMWLedger(t *testing.T) {
	const depth, pairs = 8, 1000
	b := newTestBackend(t, 2)
	var (
		stop               atomic.Bool
		threads            int64
		forkRMWs, allocRMW int64
	)
	var tree func(ct core.Handle, d int)
	tree = func(ct core.Handle, d int) {
		if d == 0 {
			return
		}
		l := forkFn(b, ct, core.Attr{}, func(c core.Handle) { tree(c, d-1) })
		r := forkFn(b, ct, core.Attr{}, func(c core.Handle) { tree(c, d-1) })
		mustJoin(b, ct, l, r)
		threads += 2
	}
	_, err := execute(t, b, func(root core.Handle) {
		// The root resumes on the other worker, which steals it from the
		// hog's shard.
		hog := forkFn(b, root, core.Attr{}, func(core.Handle) {
			for !stop.Load() {
			}
		})
		n0 := sharedRMWs.Load()
		tree(root, depth)
		n1 := sharedRMWs.Load()
		for i := 0; i < pairs; i++ {
			b.Free(root, b.Malloc(root, 64))
		}
		forkRMWs, allocRMW = n1-n0, sharedRMWs.Load()-n1
		stop.Store(true)
		mustJoin(b, root, hog)
	})
	if err != nil {
		t.Fatal(err)
	}
	perThread := float64(forkRMWs) / float64(threads)
	perOp := float64(allocRMW) / (2 * pairs)
	t.Logf("%d threads: %d shared RMWs (%.2f per thread); %d Malloc/Free pairs: %d (%.2f per op)",
		threads, forkRMWs, perThread, pairs, allocRMW, perOp)
	if perThread > 3 {
		t.Errorf("%.2f shared RMWs per forked-and-joined thread, want <= 3", perThread)
	}
	if perOp > 1 {
		t.Errorf("%.2f shared RMWs per Malloc or Free, want <= 1", perOp)
	}
}
