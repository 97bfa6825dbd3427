package native

// Concurrency unit tests for the footprint accounting: atomicMax's
// CAS loop under contention, and high-water-mark monotonicity under
// concurrent accounting and across pooled-thread reuse.

import (
	"sync"
	"sync/atomic"
	"testing"

	"spthreads/internal/core"
)

// TestAtomicMaxContention hammers one cell from many goroutines with
// interleaved values; a lost CAS retry would leave the cell below the
// global maximum.
func TestAtomicMaxContention(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10_000
	)
	var g atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := 0; w < goroutines; w++ {
		w := w
		go func() {
			defer wg.Done()
			// Strided values so every goroutine owns a share of the
			// running maximum and the CAS loop keeps losing races.
			for i := 0; i < perG; i++ {
				atomicMax(&g, int64(i*goroutines+w))
			}
		}()
	}
	wg.Wait()
	want := int64((perG-1)*goroutines + goroutines - 1)
	if got := g.Load(); got != want {
		t.Errorf("atomicMax lost an update under contention: %d, want %d", got, want)
	}
	// Lowering attempts must not move it.
	atomicMax(&g, want-1)
	if got := g.Load(); got != want {
		t.Errorf("atomicMax went backwards: %d, want %d", got, want)
	}
}

// TestHWMMonotonicUnderContention drives the shared accounting from
// concurrent goroutines while a sampler asserts that the high-water
// marks never decrease, and checks that the final live totals equal the
// exact sums.
func TestHWMMonotonicUnderContention(t *testing.T) {
	const (
		procs = 4
		steps = 20_000
	)
	var m mem
	var stop atomic.Bool
	var wg, swg sync.WaitGroup

	// Sampler: monotonicity of each HWM and HWM >= published live.
	swg.Add(1)
	go func() {
		defer swg.Done()
		var lastHeap, lastTotal int64
		for !stop.Load() {
			h := m.heapHWM.Load()
			tot := m.totalHWM.Load()
			if h < lastHeap || tot < lastTotal {
				t.Errorf("HWM went backwards: heap %d->%d total %d->%d", lastHeap, h, lastTotal, tot)
				return
			}
			lastHeap, lastTotal = h, tot
		}
	}()

	wg.Add(procs)
	for pid := 0; pid < procs; pid++ {
		go func() {
			defer wg.Done()
			// Sawtooth: the ramps move the HWMs under contention and the
			// drains bring every goroutine back to zero.
			for i := 0; i < steps; i++ {
				m.allocHeap(512)
				m.allocStack(128)
				if i%16 == 15 {
					m.freeHeap(16 * 512)
					m.freeStack(16 * 128)
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	swg.Wait()
	// Every step is balanced at sawtooth boundaries: net per goroutine
	// is zero, so the exact final totals are zero.
	if h, s := m.liveHeap.Load(), m.liveStack.Load(); h != 0 || s != 0 {
		t.Errorf("final totals heap=%d stack=%d, want 0,0", h, s)
	}
	if m.heapHWM.Load() <= 0 || m.totalHWM.Load() <= 0 {
		t.Errorf("HWMs never rose: heap %d total %d", m.heapHWM.Load(), m.totalHWM.Load())
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
	if live := b.mem.liveHeap.Load(); live != 0 {
		t.Errorf("live heap %d after all frees, want 0", live)
	}
	// All stacks released: only the root's stack could linger, and it
	// was freed at exit too.
	if live := b.mem.liveStack.Load(); live != 0 {
		t.Errorf("live stack %d after all exits, want 0", live)
	}
}
