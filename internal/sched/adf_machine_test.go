package sched_test

// Machine-level ADF edge cases: the same scenarios the policy-level
// tests pin, driven through the full simulated machine, plus an
// end-to-end differential run of the indexed policy against the
// retained linked-list reference.

import (
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/sched"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// wakeOrderProgram builds the discriminating scenario: while C
// monopolizes the only processor with a long compute (quantum expiry
// pauses a thread but never reschedules it), both sleepers' deadlines
// expire — B's first, so the machine readies B before A. When C
// finishes, a scheduler that dispatches in wake order (FIFO) resumes B;
// ADF must resume A, the leftmost serial position. The sleeps are sized
// to dwarf thread-creation costs (hundreds of virtual µs each), and the
// recorded deadlines let the caller check B's really expired first
// rather than trusting that calibration.
func wakeOrderProgram(order *[]string, aDue, bDue *vtime.Time) func(*pthread.T) {
	return func(t *pthread.T) {
		a := t.Create(func(ct *pthread.T) {
			*aDue = ct.Now() + vtime.Time(vtime.Micro(5000))
			ct.SleepMicros(5000)
			*order = append(*order, "A")
		})
		b := t.Create(func(ct *pthread.T) {
			*bDue = ct.Now() + vtime.Time(vtime.Micro(2000))
			ct.SleepMicros(2000)
			*order = append(*order, "B")
		})
		c := t.Create(func(ct *pthread.T) {
			// Charge in slices: each Charge call past the quantum runs the
			// scheduler, which wakes due sleepers against the advanced
			// clock — so B's wake is pushed strictly before A's.
			for i := 0; i < 36; i++ {
				ct.ChargeMicros(250)
			}
			*order = append(*order, "C")
		})
		t.JoinAll(a, b, c)
	}
}

func TestADFWakeSerialPositionMachine(t *testing.T) {
	runOrder := func(pol pthread.Policy) []string {
		var order []string
		var aDue, bDue vtime.Time
		_, err := pthread.Run(pthread.Config{
			Procs:  1,
			Policy: pol,
		}, wakeOrderProgram(&order, &aDue, &bDue))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if len(order) != 3 {
			t.Fatalf("%s: ran %d of 3 threads: %v", pol, len(order), order)
		}
		if bDue >= aDue {
			t.Fatalf("%s: scenario miscalibrated: B due at %d, A due at %d — B must expire first", pol, bDue, aDue)
		}
		return order
	}

	// Under ADF the serial order [A, B, C, root] decides: A resumes
	// before B even though B's deadline passed first.
	adf := runOrder(pthread.PolicyADF)
	if iA, iB := indexOf(adf, "A"), indexOf(adf, "B"); iA > iB {
		t.Errorf("adf resumed %v; want A (leftmost serial position) before B", adf)
	}
	// FIFO dispatches in wake order: B (earlier deadline) before A.
	fifo := runOrder(pthread.PolicyFIFO)
	if iA, iB := indexOf(fifo, "A"), indexOf(fifo, "B"); iB > iA {
		t.Errorf("fifo resumed %v; want wake order with B before A", fifo)
	}
}

func indexOf(s []string, v string) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// TestADFDummyBoundaryMachine: an allocation of exactly K forks no
// dummies; K+1 forks two (the ceil(m/K) binary tree), visible in the
// run's DummyThreads stat.
func TestADFDummyBoundaryMachine(t *testing.T) {
	const k = 16 << 10
	alloc := func(n int64) pthread.Stats {
		st, err := pthread.Run(pthread.Config{
			Procs: 1, Policy: pthread.PolicyADF, MemQuota: k,
		}, func(t *pthread.T) {
			a := t.Malloc(n)
			t.Free(a)
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := alloc(k); st.DummyThreads != 0 {
		t.Errorf("Malloc(K) forked %d dummies, want 0", st.DummyThreads)
	}
	if st := alloc(k + 1); st.DummyThreads != 2 {
		t.Errorf("Malloc(K+1) forked %d dummies, want 2", st.DummyThreads)
	}
}

// TestADFIndexedMatchesReferenceMachine runs a fork/join/malloc tree —
// including allocations past the quota, so dummy threads and quota
// preemptions fire — under the DePa-labeled policy and the linked-list
// reference, on 1 and 4 processors, and requires identical virtual
// results. (The treap store's agreement at machine level is pinned by
// TestDePaMachineDispatchSequencesIdentical.)
func TestADFIndexedMatchesReferenceMachine(t *testing.T) {
	const quota = 16 << 10
	workload := func(m *core.Machine) func(core.Handle) {
		var rec func(t core.Handle, depth int)
		rec = func(t core.Handle, depth int) {
			if depth == 0 {
				m.Charge(t, 5000)
				return
			}
			a := m.Fork(t, core.Attr{}, core.Func(func(ct core.Handle) { rec(ct, depth-1) }))
			n := int64(3000)
			if depth%3 == 0 {
				n = 40 << 10 // past the quota: forks dummies, burns quota
			}
			al := m.Malloc(t, n)
			b := m.Fork(t, core.Attr{}, core.Func(func(ct core.Handle) { rec(ct, depth-1) }))
			m.Charge(t, 2000)
			if err := m.Join(t, a); err != nil {
				panic(err)
			}
			if err := m.Join(t, b); err != nil {
				panic(err)
			}
			m.Free(t, al)
		}
		return func(t core.Handle) { rec(t, 6) }
	}

	runWith := func(pol core.Policy, procs int) core.Stats {
		m, err := core.New(core.Config{
			Procs:        procs,
			Policy:       pol,
			Quota:        core.Quota{K: quota, Dummies: true},
			DefaultStack: core.SmallStackSize,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Execute(workload(m))
		if err != nil {
			t.Fatalf("%s/p%d: %v", pol.Name(), procs, err)
		}
		return st
	}

	for _, procs := range []int{1, 4} {
		ref := runWith(sched.NewADFReference(), procs)
		idx := runWith(sched.MustNew(sched.ADF, sched.Options{}), procs)
		if idx.Time != ref.Time || idx.HeapHWM != ref.HeapHWM ||
			idx.PeakLive != ref.PeakLive || idx.DummyThreads != ref.DummyThreads ||
			idx.ThreadsCreated != ref.ThreadsCreated {
			t.Errorf("p=%d: adf and reference ADF diverge:\n  adf: time=%v heap=%d peak=%d dummies=%d created=%d\n  reference: time=%v heap=%d peak=%d dummies=%d created=%d",
				procs,
				idx.Time, idx.HeapHWM, idx.PeakLive, idx.DummyThreads, idx.ThreadsCreated,
				ref.Time, ref.HeapHWM, ref.PeakLive, ref.DummyThreads, ref.ThreadsCreated)
		}
	}
}
