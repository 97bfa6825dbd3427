package native

// Concurrency unit tests for the footprint accounting: high-water-mark
// monotonicity under concurrent accounting and across pooled-thread
// reuse, and the total mark as a sum the footprint held.

import (
	"sync"
	"testing"

	"spthreads/internal/core"
)

// TestHWMMonotonicUnderContention drives the accounting from
// concurrent goroutines, one per worker, each asserting that its own
// marks never decrease, and checks that the live totals return to zero
// and that TotalHWM is a value the shared total could hold: at most
// every worker's largest live share at once.
func TestHWMMonotonicUnderContention(t *testing.T) {
	const (
		procs = 4
		steps = 20_000
	)
	b := newTestBackend(t, procs)
	var wg sync.WaitGroup
	wg.Add(procs)
	for pid := 0; pid < procs; pid++ {
		go func() {
			defer wg.Done()
			w := b.workers[pid]
			var last foot
			// Sawtooth: the ramps move the marks under contention and the
			// drains bring every goroutine back to zero.
			for i := 0; i < steps; i++ {
				b.malloc(w, 512)
				b.stackAlloc(w, 128)
				if i%16 == 15 {
					b.account(w, &w.heap, &w.heapHWM, -16*512)
					b.stackAlloc(w, -16*128)
				}
				if w.heapHWM < last.heapHWM || w.stackHWM < last.stackHWM || w.totalHWM < last.totalHWM {
					t.Errorf("worker %d: a mark went backwards: %+v after %+v", pid, w.foot, last)
					return
				}
				last = w.foot
			}
		}()
	}
	wg.Wait()
	var heap, stack int64
	for _, w := range b.workers {
		heap += w.heap
		stack += w.stack
	}
	if tot := b.total.Load(); heap != 0 || stack != 0 || tot != 0 {
		t.Errorf("final heap=%d stack=%d total=%d, want 0", heap, stack, tot)
	}
	st := b.stats()
	if most := int64(procs * 16 * (512 + 128)); st.TotalHWM <= 0 || st.TotalHWM > most {
		t.Errorf("TotalHWM %d, want in (0, %d]", st.TotalHWM, most)
	}
	if st.HeapHWM > st.TotalHWM || st.StackHWM > st.TotalHWM {
		t.Errorf("class marks heap %d stack %d above TotalHWM %d", st.HeapHWM, st.StackHWM, st.TotalHWM)
	}
}

// TestTotalHWMIsASumHeld drives the interleaving that once recorded a
// footprint that never existed: worker 0 adds a 10-byte heap block;
// worker 1 then frees it and adds a 10-byte stack; only then does worker
// 0 lift its mark. A mark lifted from worker 0's heap plus a later read
// of the stack records 20. The total never exceeded 10, and TotalHWM,
// lifted from each Add's own result, must say so.
func TestTotalHWMIsASumHeld(t *testing.T) {
	defer func() { accountStep = nil }()
	b := newTestBackend(t, 2)
	w0, w1 := b.workers[0], b.workers[1]
	added, lift := make(chan struct{}), make(chan struct{})
	accountStep = func(w *worker) {
		if w == w0 {
			close(added)
			<-lift
		}
	}
	done := make(chan struct{})
	go func() {
		b.malloc(w0, 10)
		close(done)
	}()
	<-added
	b.account(w1, &w1.heap, &w1.heapHWM, -10)
	b.stackAlloc(w1, 10)
	close(lift)
	<-done
	if st := b.stats(); st.TotalHWM != 10 {
		t.Errorf("TotalHWM = %d, want 10: the footprint never held more", st.TotalHWM)
	}
}

// TestHWMAcrossPooledReuse runs a churn of alloc/free threads
// and checks the reported HWM covers the serial footprint floor and
// the live accounting returns to zero — the marks survive record
// recycling instead of resetting with the records.
func TestHWMAcrossPooledReuse(t *testing.T) {
	const (
		procs  = 4
		rounds = 2000
		block  = 1 << 17
	)
	b := newTestBackend(t, procs)
	st, err := execute(t, b, func(root core.Handle) {
		for i := 0; i < rounds; i++ {
			child := forkFn(b, root, core.Attr{StackSize: core.SmallStackSize}, func(et core.Handle) {
				a := b.Malloc(et, block)
				b.Free(et, a)
			})
			if err := b.Join(root, child); err != nil {
				panic(err)
			}
		}
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// Floor: every child's block allocation lifted the marks; recycling
	// the records 2000 times must not reset them.
	if st.TotalHWM < block {
		t.Errorf("TotalHWM %d below serial floor %d", st.TotalHWM, block)
	}
	// All blocks and stacks released: only the root's stack could
	// linger, and it was freed at exit too.
	var heap, stack int64
	for _, w := range b.workers {
		heap += w.heap
		stack += w.stack
	}
	if heap != 0 || stack != 0 || b.total.Load() != 0 {
		t.Errorf("live heap %d, stack %d, total %d after all exits, want 0", heap, stack, b.total.Load())
	}
}
