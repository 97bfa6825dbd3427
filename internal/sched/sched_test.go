package sched_test

import (
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/sched"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// execOrder runs a root that forks n no-op threads and returns the
// order in which they executed on a single processor.
func execOrder(t *testing.T, pol pthread.Policy, n int) []int {
	var order []int
	_, err := pthread.Run(pthread.Config{Procs: 1, Policy: pol}, func(tt *pthread.T) {
		hs := make([]*pthread.Thread, n)
		for i := 0; i < n; i++ {
			i := i
			hs[i] = tt.Create(func(ct *pthread.T) {
				order = append(order, i)
				ct.Charge(10)
			})
		}
		tt.JoinAll(hs...)
	})
	if err != nil {
		t.Fatalf("%s: %v", pol, err)
	}
	return order
}

func TestFIFOOrder(t *testing.T) {
	order := execOrder(t, pthread.PolicyFIFO, 5)
	for i, v := range order {
		if v != i {
			t.Fatalf("fifo executed %v, want creation order", order)
		}
	}
}

func TestLIFOOrder(t *testing.T) {
	// The parent keeps running while forking (Solaris semantics), so by
	// the time it blocks on the first join the stack holds 0..4 and the
	// children run in reverse creation order.
	order := execOrder(t, pthread.PolicyLIFO, 5)
	for i, v := range order {
		if v != 4-i {
			t.Fatalf("lifo executed %v, want reverse creation order", order)
		}
	}
}

func TestADFRunsChildImmediately(t *testing.T) {
	// Under the paper's fork semantics the child runs as soon as it is
	// created, so the execution order equals the creation order even on
	// one processor, with the parent preempted at each fork.
	order := execOrder(t, pthread.PolicyADF, 5)
	for i, v := range order {
		if v != i {
			t.Fatalf("adf executed %v, want depth-first creation order", order)
		}
	}
}

func TestWSRunsChildImmediately(t *testing.T) {
	order := execOrder(t, pthread.PolicyWS, 5)
	for i, v := range order {
		if v != i {
			t.Fatalf("ws executed %v, want child-first creation order", order)
		}
	}
}

// TestPriorities: higher-priority ready threads dispatch before
// lower-priority ones for the prioritized policies.
func TestPriorities(t *testing.T) {
	for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF} {
		var order []int
		_, err := pthread.Run(pthread.Config{Procs: 1, Policy: pol}, func(tt *pthread.T) {
			// Parent has priority 0; children get 1..3 in creation
			// order 1,2,3 — the highest priority must run first
			// regardless of the queue discipline within a level.
			var hs []*pthread.Thread
			for _, pri := range []int{1, 2, 3} {
				pri := pri
				hs = append(hs, tt.CreateAttr(pthread.Attr{Priority: pri}, func(ct *pthread.T) {
					order = append(order, pri)
					ct.Charge(10)
				}))
			}
			tt.JoinAll(hs...)
		})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if pol == pthread.PolicyADF {
			// ADF runs each child immediately at fork, so creation
			// order wins; what matters is it did not crash and ran all.
			if len(order) != 3 {
				t.Fatalf("adf ran %d threads, want 3", len(order))
			}
			continue
		}
		want := []int{3, 2, 1}
		for i, v := range order {
			if v != want[i] {
				t.Fatalf("%s executed priorities %v, want %v", pol, order, want)
			}
		}
	}
}

func TestNewUnknownPolicy(t *testing.T) {
	if _, err := sched.New("bogus", sched.Options{}); err == nil {
		t.Error("expected error for unknown policy")
	}
}

func TestKinds(t *testing.T) {
	kinds := sched.Kinds()
	if len(kinds) != 6 {
		t.Fatalf("Kinds() = %v, want 6 entries", kinds)
	}
	for _, k := range kinds {
		p, err := sched.New(k, sched.Options{Procs: 2})
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if p.Name() != string(k) {
			t.Errorf("policy %s reports name %s", k, p.Name())
		}
	}
}

// TestADFQuota: the throttling kinds (adf, adf-shard, dfd) run under
// the quota and dummy counts Kind.Quota derives, K defaulting to
// DefaultMemQuota; the others run under none and reject either setting,
// and an unknown kind is an error.
func TestADFQuota(t *testing.T) {
	for _, k := range []sched.Kind{sched.ADF, sched.ADFShard, sched.DFD} {
		q, err := k.Quota(1000, false)
		if err != nil || q.K != 1000 {
			t.Errorf("%s: Quota(1000) = %+v, %v; want K 1000", k, q, err)
		}
		if got := q.DummiesFor(3500); got != 4 {
			t.Errorf("%s: DummiesFor(3500) = %d, want 4 (ceil 3.5)", k, got)
		}
		if got := q.DummiesFor(900); got != 0 {
			t.Errorf("%s: DummiesFor(900) = %d, want 0 (below quota)", k, got)
		}
		if q, _ := k.Quota(0, false); q.K != core.DefaultMemQuota {
			t.Errorf("%s: default K = %d, want %d", k, q.K, core.DefaultMemQuota)
		}
		if q, _ := k.Quota(1000, true); q.K != 1000 || q.DummiesFor(1<<20) != 0 {
			t.Errorf("%s: disableDummies gives %+v, want K 1000 and no dummy threads", k, q)
		}
	}
	for _, k := range []sched.Kind{sched.FIFO, sched.LIFO, sched.WS} {
		if q, err := k.Quota(0, false); q != (core.Quota{}) || err != nil {
			t.Errorf("%s: Quota = %+v, %v; want none", k, q, err)
		}
		if _, err := k.Quota(1000, false); err == nil {
			t.Errorf("%s: a quota was accepted", k)
		}
		if _, err := k.Quota(0, true); err == nil {
			t.Errorf("%s: disableDummies was accepted", k)
		}
	}
	if _, err := sched.Kind("bogus").Quota(0, false); err == nil {
		t.Error("an unknown kind got a quota")
	}
}

// TestFIFORunsToCompletion: under FIFO, two CPU-bound equal-priority
// threads on one processor do not interleave: quantum pauses keep the
// processor, so the first runs to completion.
func TestFIFORunsToCompletion(t *testing.T) {
	var order []int
	spin := func(id int) func(*pthread.T) {
		return func(ct *pthread.T) {
			for i := 0; i < 4; i++ {
				// Each burst spans many quanta.
				ct.Charge(int64(vtime.Micro(10_000)))
				order = append(order, id)
			}
		}
	}
	if _, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyFIFO}, func(tt *pthread.T) {
		tt.Par(spin(1), spin(2))
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 1, 1, 2, 2, 2, 2}
	for i, v := range order {
		if v != want[i] {
			t.Fatalf("fifo ran %v, want run-to-completion %v", order, want)
		}
	}
}
