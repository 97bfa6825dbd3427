package native

// Concurrency unit tests for the footprint accounting: atomicMax's
// CAS loop under contention, high-water-mark monotonicity across
// pooled-thread reuse, and the tuned engine's per-cell staleness
// invariant (|pending| < flushBytes after every accounting call).

import (
	"sync"
	"sync/atomic"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/exec"
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

// TestHWMMonotonicUnderFlush drives per-worker cells from concurrent
// owner goroutines while a sampler asserts that the published
// high-water marks never decrease and that the final published totals
// equal the exact sums.
func TestHWMMonotonicUnderFlush(t *testing.T) {
	const (
		procs = 4
		steps = 20_000
	)
	b := &Backend{cells: make([]memCell, procs), flushBytes: 4096}
	var stop atomic.Bool
	var wg, swg sync.WaitGroup

	// Sampler: monotonicity of each HWM and HWM >= published live.
	swg.Add(1)
	go func() {
		defer swg.Done()
		var lastHeap, lastTotal int64
		for !stop.Load() {
			h := b.mem.heapHWM.Load()
			tot := b.mem.totalHWM.Load()
			if h < lastHeap || tot < lastTotal {
				t.Errorf("HWM went backwards: heap %d->%d total %d->%d", lastHeap, h, lastTotal, tot)
				return
			}
			lastHeap, lastTotal = h, tot
		}
	}()

	wg.Add(procs)
	for pid := 0; pid < procs; pid++ {
		pid := pid
		go func() {
			defer wg.Done()
			// Sawtooth with amplitude above flushBytes: the ramp forces
			// mid-rise publications (so the HWMs genuinely move under
			// contention) and the drain forces negative flushes.
			for i := 0; i < steps; i++ {
				b.cellAdd(pid, 512, 128)
				if i%16 == 15 {
					b.cellAdd(pid, -16*512, -16*128)
				}
				// Single-writer staleness invariant: after every call the
				// cell's unpublished magnitude is below the flush threshold.
				c := &b.cells[pid]
				if p := abs64(c.heap.Load()) + abs64(c.stack.Load()); p >= b.flushBytes {
					t.Errorf("cell %d pending %d >= flushBytes %d", pid, p, b.flushBytes)
					return
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	swg.Wait()
	b.flushCells()
	// Every step is balanced at sawtooth boundaries: net per worker is
	// zero, so the exact final totals are zero.
	if h, s := b.mem.liveHeap.Load(), b.mem.liveStack.Load(); h != 0 || s != 0 {
		t.Errorf("final published totals heap=%d stack=%d, want 0,0", h, s)
	}
	if b.mem.heapHWM.Load() <= 0 || b.mem.totalHWM.Load() <= 0 {
		t.Errorf("HWMs never rose: heap %d total %d", b.mem.heapHWM.Load(), b.mem.totalHWM.Load())
	}
}

// TestHWMAcrossPooledReuse runs a tuned churn of alloc/free threads
// and checks the reported HWM covers the serial footprint floor and
// the live accounting returns to zero — the marks survive record
// recycling instead of resetting with the records.
func TestHWMAcrossPooledReuse(t *testing.T) {
	const (
		procs  = 4
		rounds = 2000
		// block exceeds the tuned flush threshold, so every child's
		// allocation forces its cell to publish — the HWM must then
		// witness the footprint even though the records recycle.
		block = 1 << 17
	)
	b := newTestBackend(t, EngineTuned, procs)
	st, err := execute(t, b, func(root exec.Thread) {
		for i := 0; i < rounds; i++ {
			child := b.Fork(root, core.Attr{StackSize: core.SmallStackSize}, func(et exec.Thread) {
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
	if b.flushBytes <= 0 || b.flushBytes > block {
		t.Fatalf("flushBytes %d not in (0, %d]: test premise broken", b.flushBytes, block)
	}
	// Floor: every child's block allocation was >= the flush threshold,
	// so at least one publication carried it into the marks; recycling
	// the records 2000 times must not reset them.
	if st.TotalHWM < block {
		t.Errorf("TotalHWM %d below serial floor %d", st.TotalHWM, block)
	}
	if live := b.liveHeapNow(); live != 0 {
		t.Errorf("live heap %d after all frees, want 0", live)
	}
	// All stacks released: only the root's stack could linger, and it
	// was freed at exit too.
	if live := b.liveStackNow(); live != 0 {
		t.Errorf("live stack %d after all exits, want 0", live)
	}
}
