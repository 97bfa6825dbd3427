package native

import (
	"testing"
	"unsafe"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
	"spthreads/internal/sched"
)

// shardFib is a deterministic fork/join workload with enough compute
// per node that dispatch decisions interleave with running threads.
func shardFib(b *Backend, t core.Handle, n int, out *int64) {
	b.Charge(t, 200)
	if n < 2 {
		*out = int64(n)
		return
	}
	var x, y int64
	c := forkFn(b, t, core.Attr{}, func(ct core.Handle) { shardFib(b, ct, n-1, &x) })
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
	if _, err := execute(t, b, func(root core.Handle) {
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
	b := newPolicyBackend(t, sched.ADF, Config{Procs: 2, Metrics: metrics.NewRegistry()})
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
	if ss.cSteal.Value() == 0 {
		t.Error("no steals: the scan went unexercised")
	}
}

// TestHotWordsOwnTheirLines: the per-worker counts and per-shard sizes a
// fork → exit → join writes sit on cache lines no other worker's or
// shard's word reaches. A 64-byte line holding a word at offset o spans
// at most [o-56, o+64), so a struct whose hot words all lie in
// [56, size-64) keeps them off every word outside it: a neighbouring
// worker's, a neighbouring shard's, and b.mu, which lives in another
// allocation.
func TestHotWordsOwnTheirLines(t *testing.T) {
	const line = 64
	var w worker
	var s shard
	for _, c := range []struct {
		name              string
		first, last, size uintptr
	}{
		{"worker", unsafe.Offsetof(w.stats), unsafe.Offsetof(w.maxSpan), unsafe.Sizeof(w)},
		{"shard size", unsafe.Offsetof(s.size), unsafe.Offsetof(s.size), unsafe.Sizeof(s)},
	} {
		if c.first < line-8 || c.last+line > c.size {
			t.Errorf("%s: hot words at [%d, %d] in %d bytes, want within [%d, %d)",
				c.name, c.first, c.last, c.size, line-8, c.size-line)
		}
	}
}
