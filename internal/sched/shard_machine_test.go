package sched_test

// Machine-level oracle for the sharded policy's strict mode: the whole
// trace of a run, not just its dispatch choices, must match adf.

import (
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/sched"
	"spthreads/internal/trace"
)

// shardFib is a deterministic fork/join workload with enough compute
// per node that dispatch decisions interleave with running threads.
func shardFib(m *core.Machine, t *core.Thread, n int, out *int64) {
	m.Charge(t, 200)
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	c := m.Fork(t, core.Attr{}, core.Func(func(ct *core.Thread) { shardFib(m, ct, n-1, &a) }))
	shardFib(m, t, n-2, &b)
	if err := m.Join(t, c); err != nil {
		panic(err)
	}
	*out = a + b
}

func runShardTrace(t *testing.T, pol core.Policy, procs, n int) []trace.Event {
	t.Helper()
	rec := trace.NewRecorder(1 << 20)
	m, err := core.New(core.Config{Procs: procs, Policy: pol, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	var res int64
	if _, err := m.Execute(func(th *core.Thread) { shardFib(m, th, n, &res) }); err != nil {
		t.Fatalf("%s/p%d: %v", pol.Name(), procs, err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("trace dropped %d events; raise the recorder cap", rec.Dropped())
	}
	return rec.Events()
}

// TestShardStrictTraceIdentical: strict mode reports a global policy, so
// the machine applies the exact adf charging and the whole event
// stream — timestamps included — must be byte-identical to adf at any p.
func TestShardStrictTraceIdentical(t *testing.T) {
	for _, procs := range []int{2, 4} {
		adf := runShardTrace(t, sched.MustNew(sched.ADF, sched.Options{}), procs, 12)
		sh := runShardTrace(t, sched.MustNew(sched.ADFShard,
			sched.Options{Procs: procs, ShardStrict: true}), procs, 12)
		if len(adf) != len(sh) {
			t.Fatalf("p=%d: event counts differ: adf=%d shard-strict=%d", procs, len(adf), len(sh))
		}
		for i := range adf {
			if adf[i] != sh[i] {
				t.Fatalf("p=%d: event %d diverged: adf=%+v shard-strict=%+v",
					procs, i, adf[i], sh[i])
			}
		}
	}
}
