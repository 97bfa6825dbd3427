package native

import (
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/exec"
	"spthreads/internal/sched"
)

// shardFib is a deterministic fork/join workload with enough compute
// per node that dispatch decisions interleave with running threads.
func shardFib(b *Backend, t exec.Thread, n int, out *int64) {
	b.Charge(t, 200)
	if n < 2 {
		*out = int64(n)
		return
	}
	var x, y int64
	c := forkFn(b, t, core.Attr{}, func(ct exec.Thread) { shardFib(b, ct, n-1, &x) })
	shardFib(b, t, n-2, &y)
	mustJoin(b, t, c)
	*out = x + y
}

// TestShardNativeSleep covers adf-shard's sleep path natively: the
// timer wake pushes the root back into a shard while the other workers
// may be stealing.
func TestShardNativeSleep(t *testing.T) {
	b, err := New(Config{
		Procs:  4,
		Policy: sched.MustNew(sched.ADFShard, sched.Options{Procs: 4}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var res int64
	if _, err := execute(t, b, func(root exec.Thread) {
		b.Sleep(root, 1000)
		shardFib(b, root, 12, &res)
	}); err != nil {
		t.Fatal(err)
	}
	if res != 144 {
		t.Fatalf("fib(12) = %d, want 144", res)
	}
}

// TestShardOpsAllocateNothing: once a shard's heap has grown, pushing,
// popping (plain and yield-style) and taking — the own pop and the
// steal scan over the published cells — allocate nothing.
func TestShardOpsAllocateNothing(t *testing.T) {
	b := newPolicyBackend(t, sched.ADF, Config{Procs: 2})
	ss := b.shards
	lineage := core.RootDepaLabel()
	ts := make([]*thread, 8)
	for i := range ts {
		ts[i] = &thread{b: b}
		ts[i].tok.Order = lineage.Fork()
	}
	yielder := &thread{b: b}
	yielder.tok.Order = lineage
	allocs := testing.AllocsPerRun(100, func() {
		for _, x := range ts {
			ss.push(x, 0)
		}
		if ss.pop(0, yielder) == nil || ss.pop(0, nil) == nil {
			t.Fatal("pop found shard 0 empty")
		}
		for ss.take(1) != nil { // own shard empty: every take steals
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per push/pop/take round, want 0", allocs)
	}
	if ss.steals.Load() == 0 {
		t.Error("no steals: the scan went unexercised")
	}
}
