package sched

// Differential tests for the batched refill path: the machine's
// scheduler pass takes a batch as n successive Next calls with nothing
// in between, so the production store and the treap must return
// exactly the sequence the linked-list reference oracle produces — same
// thread set, same leftmost-first order, no violations — under random
// and fuzzed fork/dispatch/block/wake/exit interleavings.

import (
	"math/rand"
	"testing"

	"spthreads/internal/core"
)

// nextBatch takes up to n threads from p by successive Next calls, as
// the machine's scheduler pass does.
func nextBatch(p core.Policy, n int) (out []*core.Thread) {
	for len(out) < n {
		t := p.Next(0)
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}

// dispatchBatch pulls up to n threads in one batch from every side and
// requires the identical sequence everywhere.
func (d *diffADF) dispatchBatch(n int) {
	ref := nextBatch(d.sides[refSide], n)
	for i := 0; i < refSide; i++ {
		got := nextBatch(d.sides[i], n)
		if len(got) != len(ref) {
			d.t.Fatalf("%s batch of %d returned %d threads, reference %d",
				d.names[i], n, len(got), len(ref))
		}
		for k := range got {
			if got[k].ID != ref[k].ID {
				d.t.Fatalf("%s batch of %d, thread %d = %d, reference dispatched %d (leftmost-order violation)",
					d.names[i], n, k, got[k].ID, ref[k].ID)
			}
		}
	}
	for _, t := range ref {
		d.removeID(&d.ready, t.ID)
		d.running = append(d.running, t.ID)
	}
	d.check("batch-dispatch")
}

// TestADFBatchMatchesSequential: on a static ready population, one
// batch of n equals n sequential reference dispatches for every n,
// including n past exhaustion.
func TestADFBatchMatchesSequential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 64} {
		d := newDiffADF(t, 64)
		d.fork(-1, 0)
		d.dispatch()
		// Build a ragged ready tree: forks from whatever is running.
		for i := 0; i < 40; i++ {
			d.fork(d.running[i%len(d.running)], 0)
		}
		for len(d.ready) > 0 {
			d.dispatchBatch(n)
		}
		// Exhausted: a further batch is empty on both sides.
		d.dispatchBatch(n)
	}
}

// TestADFBatchDifferentialRandom interleaves batched refills with the
// full fork/block/wake/yield/exit operation mix across many seeds.
func TestADFBatchDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newDiffADF(t, 1+rng.Intn(64))
		d.fork(-1, 0)
		d.dispatch()
		for op := 0; op < 2500; op++ {
			if rng.Intn(4) == 0 {
				d.dispatchBatch(1 + rng.Intn(16))
			} else {
				d.step(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
			}
			if t.Failed() {
				t.Fatalf("seed %d failed at op %d", seed, op)
			}
		}
		d.drain()
	}
}

// FuzzADFBatchDifferential explores batched-vs-sequential dispatch
// agreement beyond the fixed seeds.
func FuzzADFBatchDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{1, 9, 3, 0, 0, 0, 5, 5, 5, 2, 3, 2, 3, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		d := newDiffADF(t, 8)
		d.fork(-1, 0)
		d.dispatch()
		for i := 0; i+3 < len(data) && i < 4*4096; i += 4 {
			if data[i]%4 == 0 {
				d.dispatchBatch(1 + int(data[i+1])%16)
			} else {
				d.step(data[i+1], data[i+2], data[i+3])
			}
		}
		d.drain()
	})
}
