package native

import (
	"reflect"
	"slices"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
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
		Policy: "adf-shard",
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
	b := newPolicyBackend(t, "adf", Config{Procs: 2, Metrics: metrics.NewRegistry()})
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

// TestHotWordsOwnTheirLines: the words a fork → exit → join or a
// Malloc / Free writes, and the shared words every worker reads on those
// paths, sit on cache lines no word of another group reaches. A 64-byte
// line holding a word at offset o spans at most [o-56, o+64), so a group
// whose words lie in [first, last] keeps its line to itself when no field
// outside the group starts or ends in [first-56, last+64) and the group
// lies in [56, size-64): off a neighbouring worker's or shard's words,
// and off whatever shares the allocation's edges. Words with the same
// writers share a group: b.mu with the idle counts it guards, and a
// shard's size with its lock, heap and hint (peers, which may share the
// group's line without being held to its edges).
func TestHotWordsOwnTheirLines(t *testing.T) {
	for _, c := range []struct {
		typ          reflect.Type
		group, peers []string
	}{
		{reflect.TypeFor[worker](), []string{"stats", "dispatches", "wakeups", "maxSpan",
			"live", "peakLive", "quotaPreempts", "dummies", "foot"}, nil},
		{reflect.TypeFor[shard](), []string{"size"}, []string{"mu", "h", "pub"}},
		{reflect.TypeFor[shardStore](), []string{"seq"}, nil},
		{reflect.TypeFor[Backend](), []string{"mu", "idleA", "idle", "sleepers", "err", "endStatus"}, nil},
		{reflect.TypeFor[Backend](), []string{"done"}, nil},
		{reflect.TypeFor[Backend](), []string{"nextID"}, nil},
		{reflect.TypeFor[Backend](), []string{"total"}, nil},
	} {
		hotLinesApart(t, c.typ, c.group, c.peers)
	}
}

// hotLinesApart checks one group of typ's fields as
// TestHotWordsOwnTheirLines describes.
func hotLinesApart(t *testing.T, typ reflect.Type, group, peers []string) {
	t.Helper()
	const line = 64
	first, last := typ.Size(), uintptr(0)
	for _, name := range group {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %s", typ, name)
		}
		first, last = min(first, f.Offset), max(last, f.Offset+f.Type.Size()-1)
	}
	lo, hi := first-min(first, line-8), last+line
	if first < line-8 || hi > typ.Size() {
		t.Errorf("%v %v: at [%d, %d] in %d bytes, want within [%d, %d)",
			typ, group, first, last, typ.Size(), line-8, typ.Size()-line)
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" || slices.Contains(group, f.Name) || slices.Contains(peers, f.Name) {
			continue
		}
		if end := f.Offset + f.Type.Size(); f.Offset < hi && end > lo {
			t.Errorf("%v %v: field %s at [%d, %d) shares a line with the group at [%d, %d]",
				typ, group, f.Name, f.Offset, end, first, last)
		}
	}
}
