package sched

// DePa-specific differential coverage on top of the three-way store
// harness in adf_diff_test.go:
//
//   - a full pairwise left-of oracle: for every pair of live
//     placeholders, the sign of the DePa label comparison must match
//     the pair's relative position in the reference list and in the
//     treap's in-order traversal — the per-step checks only assert
//     adjacent pairs, this asserts all O(n^2) of them;
//   - machine-level runs: the same program executed under "adf",
//     "adf-treap", and "adf-ref" must produce the identical dispatch
//     event sequence, not merely identical aggregate stats;
//   - FuzzDePaOrder: a fuzz target over random fork/join/exit programs
//     with the pairwise oracle applied throughout.

import (
	"math/rand"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/trace"
)

// checkPairwise asserts, for every pair of placeholders in every level,
// that DePa left-of agrees with the reference list position and with
// the treap order. Quadratic — callers apply it to modest populations.
func (d *diffADF) checkPairwise(op string) {
	d.t.Helper()
	for pri := 0; pri < core.NumPriorities; pri++ {
		ids, _ := d.chainOrder(pri)
		if len(ids) < 2 {
			continue
		}
		labels := make([]core.DepaLabel, len(ids))
		for k, id := range ids {
			labels[k] = d.mirr[0][id].SchedState.(*readyEntry).label
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if c := labels[i].Compare(labels[j]); c != -1 {
					d.t.Fatalf("%s: level %d: depa Compare(id %d, id %d) = %d; list order says -1",
						op, pri, ids[i], ids[j], c)
				}
				if c := labels[j].Compare(labels[i]); c != 1 {
					d.t.Fatalf("%s: level %d: depa Compare(id %d, id %d) = %d; list order says 1 (antisymmetry)",
						op, pri, ids[j], ids[i], c)
				}
			}
		}
	}
}

// TestDePaLeftOfAgreesWithOracles drives random programs and applies
// the full pairwise oracle periodically and at the end.
func TestDePaLeftOfAgreesWithOracles(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		d := newDiffADF(t, 1+rng.Intn(8))
		d.fork(-1, 0)
		d.dispatch()
		for op := 0; op < 600; op++ {
			d.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			if op%20 == 0 {
				d.checkPairwise("periodic")
			}
			if t.Failed() {
				t.Fatalf("seed %d failed at op %d", seed, op)
			}
		}
		d.checkPairwise("final")
		d.drain()
	}
}

// FuzzDePaOrder lets go test -fuzz explore operation sequences with the
// pairwise left-of oracle active; corpus entries replay in normal runs.
func FuzzDePaOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0, 8, 0, 2, 0, 0, 3, 0, 0, 5, 0, 0})
	f.Add([]byte{1, 0, 1, 0, 5, 5, 5, 2, 3, 2, 3, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		d := newDiffADF(t, 4)
		d.fork(-1, 0)
		d.dispatch()
		for i := 0; i+2 < len(data) && i < 3*2048; i += 3 {
			d.step(data[i], data[i+1], data[i+2])
			if i%(3*16) == 0 {
				d.checkPairwise("fuzz")
			}
		}
		d.checkPairwise("fuzz-final")
		d.drain()
	})
}

// TestDePaMachineDispatchSequencesIdentical runs one fork/join/malloc
// program — quota overruns included, so dummy forks and quota
// preemptions fire — under all three ADF stores on the simulated
// machine and requires the recorded dispatch event sequences to be
// identical: same threads, same processors, same virtual times, in the
// same order.
func TestDePaMachineDispatchSequencesIdentical(t *testing.T) {
	const quota = 16 << 10
	workload := func(m *core.Machine) func(core.Handle) {
		var rec func(t core.Handle, depth int)
		rec = func(t core.Handle, depth int) {
			if depth == 0 {
				m.Charge(t, 4000)
				return
			}
			a := m.Fork(t, core.Attr{}, core.Func(func(ct core.Handle) { rec(ct, depth-1) }))
			n := int64(2000)
			if depth%2 == 0 {
				n = 48 << 10 // past the quota
			}
			al := m.Malloc(t, n)
			b := m.Fork(t, core.Attr{}, core.Func(func(ct core.Handle) { rec(ct, depth-1) }))
			m.Charge(t, 1500)
			if err := m.Join(t, a); err != nil {
				panic(err)
			}
			if err := m.Join(t, b); err != nil {
				panic(err)
			}
			m.Free(t, al)
		}
		return func(t core.Handle) { rec(t, 5) }
	}

	type dispatch struct {
		at     int64
		proc   int
		thread int64
	}
	run := func(pol core.Policy, procs int) []dispatch {
		rec := trace.NewRecorder(1 << 20)
		m, err := core.New(core.Config{
			Procs:        procs,
			Policy:       pol,
			Quota:        core.Quota{K: quota, Dummies: true},
			DefaultStack: core.SmallStackSize,
			Tracer:       rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Execute(workload(m)); err != nil {
			t.Fatalf("%s/p%d: %v", pol.Name(), procs, err)
		}
		var out []dispatch
		for _, e := range rec.Events() {
			if e.Kind == trace.KindDispatch {
				out = append(out, dispatch{at: int64(e.At), proc: e.Proc, thread: e.Thread})
			}
		}
		if len(out) == 0 {
			t.Fatalf("%s/p%d: no dispatch events recorded", pol.Name(), procs)
		}
		return out
	}

	for _, procs := range []int{1, 3} {
		ref := run(NewADFReference(), procs)
		for _, mk := range []struct {
			name string
			pol  core.Policy
		}{
			{"adf", newADF()},
			{"adf-treap", newADFTreap()},
		} {
			got := run(mk.pol, procs)
			if len(got) != len(ref) {
				t.Fatalf("p=%d: %s recorded %d dispatches, reference %d",
					procs, mk.name, len(got), len(ref))
			}
			for k := range got {
				if got[k] != ref[k] {
					t.Fatalf("p=%d: dispatch %d diverges: %s=%+v reference=%+v",
						procs, k, mk.name, got[k], ref[k])
				}
			}
		}
	}
}
