package sched_test

// Machine-level tests for the batched two-level Q_in/R/Q_out scheduler
// (core.Config.SchedBatch): the batched treap policy must agree with the
// linked-list reference oracle on the full dispatch sequence under
// fuzzed fork/join/alloc programs, batch=1 must be bit-identical to the
// direct path, and batched runs must stay deterministic.

import (
	"bytes"
	"math/rand"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
	"spthreads/internal/sched"
	"spthreads/internal/trace"
)

// fuzzedWorkload builds a deterministic but irregular fork/join/alloc
// program from a seed: a recursive tree whose fan-out, compute grain,
// and allocation sizes (some past the ADF quota, firing dummy threads
// and quota preemptions) are drawn from the seeded generator.
func fuzzedWorkload(m *core.Machine, seed int64) func(core.Handle) {
	rng := rand.New(rand.NewSource(seed))
	type node struct {
		kids  []int
		grain int64
		alloc int64
	}
	// Pre-generate the tree so both policy runs see the same program.
	var nodes []node
	var gen func(depth int) int
	gen = func(depth int) int {
		id := len(nodes)
		nodes = append(nodes, node{})
		n := node{
			grain: int64(500 + rng.Intn(8000)),
			alloc: int64(rng.Intn(48 << 10)), // sometimes past the 16 KB quota
		}
		if depth > 0 {
			for i, fan := 0, 1+rng.Intn(3); i < fan; i++ {
				n.kids = append(n.kids, gen(depth-1))
			}
		}
		nodes[id] = n
		return id
	}
	root := gen(5)

	var rec func(t core.Handle, id int)
	rec = func(t core.Handle, id int) {
		n := nodes[id]
		var hs []core.Handle
		for _, k := range n.kids {
			k := k
			hs = append(hs, m.Fork(t, core.Attr{}, core.Func(func(ct core.Handle) { rec(ct, k) })))
		}
		var al core.Alloc
		if n.alloc > 0 {
			al = m.Malloc(t, n.alloc)
		}
		m.Charge(t, n.grain)
		for _, h := range hs {
			if err := m.Join(t, h); err != nil {
				panic(err)
			}
		}
		if n.alloc > 0 {
			m.Free(t, al)
		}
	}
	return func(t core.Handle) { rec(t, root) }
}

type batchRun struct {
	stats core.Stats
	rec   *trace.Recorder
	reg   *metrics.Registry
}

func runBatched(t *testing.T, pol core.Policy, procs, batch int, seed int64) batchRun {
	t.Helper()
	rec := trace.NewRecorder(1 << 20)
	reg := metrics.NewRegistry()
	m, err := core.New(core.Config{
		Procs:        procs,
		Policy:       pol,
		DefaultStack: core.SmallStackSize,
		SchedBatch:   batch,
		Tracer:       rec,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Execute(fuzzedWorkload(m, seed))
	if err != nil {
		t.Fatalf("%s/p%d/b%d: %v", pol.Name(), procs, batch, err)
	}
	return batchRun{stats: st, rec: rec, reg: reg}
}

// dispatchSeq extracts the scheduled-thread sequence from a trace.
func dispatchSeq(rec *trace.Recorder) []int64 {
	var seq []int64
	for _, e := range rec.Events() {
		if e.Kind == trace.KindDispatch {
			seq = append(seq, e.Thread)
		}
	}
	return seq
}

// TestBatchedADFMatchesReferenceMachine: under fuzzed programs, the
// batched treap policy and the batched linked-list oracle produce the
// identical dispatch sequence (same scheduled-thread set, leftmost order
// preserved, no violations) and identical virtual results, across batch
// sizes.
func TestBatchedADFMatchesReferenceMachine(t *testing.T) {
	const quota = 16 << 10
	for _, batch := range []int{2, 8, 64} {
		for seed := int64(1); seed <= 4; seed++ {
			idx := runBatched(t, sched.MustNew(sched.ADF, sched.Options{MemQuota: quota}),
				4, batch, seed)
			ref := runBatched(t, sched.NewADFReference(quota, false),
				4, batch, seed)
			if a, b := dispatchSeq(idx.rec), dispatchSeq(ref.rec); !equalSeq(a, b) {
				t.Fatalf("b%d/seed%d: dispatch sequences diverge (len %d vs %d)",
					batch, seed, len(a), len(b))
			}
			if idx.stats.Time != ref.stats.Time || idx.stats.HeapHWM != ref.stats.HeapHWM ||
				idx.stats.PeakLive != ref.stats.PeakLive ||
				idx.stats.DummyThreads != ref.stats.DummyThreads ||
				idx.stats.ThreadsCreated != ref.stats.ThreadsCreated {
				t.Fatalf("b%d/seed%d: indexed and reference ADF diverge: time=%v/%v heap=%d/%d",
					batch, seed, idx.stats.Time, ref.stats.Time,
					idx.stats.HeapHWM, ref.stats.HeapHWM)
			}
		}
	}
}

func equalSeq(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchOneIdenticalToDirect: SchedBatch=1 is the direct scheduler
// (SchedBatch=0) exactly — same stats and byte-identical trace.
func TestBatchOneIdenticalToDirect(t *testing.T) {
	const quota = 16 << 10
	direct := runBatched(t, sched.MustNew(sched.ADF, sched.Options{MemQuota: quota}),
		4, 0, 7)
	b1 := runBatched(t, sched.MustNew(sched.ADF, sched.Options{MemQuota: quota}),
		4, 1, 7)
	if direct.stats.Time != b1.stats.Time || direct.stats.HeapHWM != b1.stats.HeapHWM {
		t.Fatalf("batch=1 diverged from direct: time=%v/%v heap=%d/%d",
			direct.stats.Time, b1.stats.Time, direct.stats.HeapHWM, b1.stats.HeapHWM)
	}
	var bufA, bufB bytes.Buffer
	if err := direct.rec.WriteJSONL(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b1.rec.WriteJSONL(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("batch=1 trace differs from direct trace")
	}
}

// TestBatchedDeterminism: the batched scheduler is as deterministic as
// the direct one — two identical runs produce byte-identical traces.
func TestBatchedDeterminism(t *testing.T) {
	const quota = 16 << 10
	mk := func() batchRun {
		return runBatched(t, sched.MustNew(sched.ADF, sched.Options{MemQuota: quota}),
			8, 16, 11)
	}
	a, b := mk(), mk()
	if a.stats.Time != b.stats.Time {
		t.Fatalf("batched run not deterministic: %v vs %v", a.stats.Time, b.stats.Time)
	}
	var bufA, bufB bytes.Buffer
	if err := a.rec.WriteJSONL(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.rec.WriteJSONL(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("batched runs produced different traces")
	}
}

// TestVolunteerReducesLockWait: the point of the tentpole — at p=16 the
// batched volunteer scheduler accumulates far less scheduler-lock wait
// than the direct per-operation scheduler on the same program.
func TestVolunteerReducesLockWait(t *testing.T) {
	const quota = 16 << 10
	lockWait := func(batch int) int64 {
		r := runBatched(t, sched.MustNew(sched.ADF, sched.Options{MemQuota: quota}),
			16, batch, 5)
		return r.reg.Snapshot().Histograms["sched.lock.wait"].Sum
	}
	direct := lockWait(0)
	batched := lockWait(16)
	if direct == 0 {
		t.Skip("direct run saw no contention at this scale")
	}
	if batched >= direct {
		t.Errorf("volunteer batching did not reduce lock wait: direct=%d batched=%d", direct, batched)
	}
}
