// Package vtime defines the virtual time base and the calibrated cost
// model used by the simulated multiprocessor.
//
// All simulated durations are expressed in cycles of the modeled CPU, a
// 167 MHz UltraSPARC (the machine used in the paper): 167 cycles equal
// one virtual microsecond. The cost model constants are taken from the
// paper's Figure 3 where the text gives them (thread creation, stack
// allocation) and are calibrated to plausible Solaris 2.5 values where it
// does not; EXPERIMENTS.md records the calibration.
package vtime

import "fmt"

// Time is an absolute virtual time in cycles since the start of a run.
type Time int64

// Duration is a span of virtual time in cycles.
type Duration int64

// CyclesPerMicrosecond converts the paper's microsecond figures into
// cycles of the modeled 167 MHz processor.
const CyclesPerMicrosecond = 167

// Microseconds returns d as fractional virtual microseconds.
func (d Duration) Microseconds() float64 {
	return float64(d) / CyclesPerMicrosecond
}

// Seconds returns d as fractional virtual seconds.
func (d Duration) Seconds() float64 {
	return float64(d) / (CyclesPerMicrosecond * 1e6)
}

// String formats a duration with an adaptive unit.
func (d Duration) String() string {
	us := d.Microseconds()
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.3fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.3fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fus", us)
	}
}

// Seconds returns t as fractional virtual seconds since the run started.
func (t Time) Seconds() float64 { return Duration(t).Seconds() }

// Micro builds a Duration from a microsecond count.
func Micro(us float64) Duration { return Duration(us * CyclesPerMicrosecond) }

// CostModel holds every virtual-time charge applied by the runtime and
// the memory system. A zero value is not usable; start from Default.
type CostModel struct {
	// Thread operations (Figure 3 of the paper).

	// ThreadCreate is charged on the forking thread for every thread
	// created, assuming a preallocated (cached) stack.
	ThreadCreate Duration
	// ThreadJoin is charged for joining with a thread that has exited.
	ThreadJoin Duration
	// SemaSync is the one-context-switch semaphore synchronization cost;
	// it is split between the waiter and the poster.
	SemaSync Duration
	// SyncOp is the uncontended fast-path cost of a mutex, condition
	// variable, or semaphore operation.
	SyncOp Duration
	// ContextSwitch is charged when a processor switches between
	// lightweight threads.
	ContextSwitch Duration

	// Stack allocation (Figure 3 caption): creating a thread without a
	// cached stack adds a size-dependent overhead, from StackAllocBase
	// for the smallest (one page) stack growing linearly to
	// StackAllocMax for a 1 MB stack.
	StackAllocBase Duration
	StackAllocMax  Duration

	// Scheduler queue costs.

	// SchedLockOp is the critical-section length of one ready-queue
	// operation under the global scheduler lock. In the batched
	// two-level scheduler it is the lock-acquisition critical section
	// charged once per scheduler pass.
	SchedLockOp Duration
	// SchedLocalOp is the cost of one lock-free operation on a
	// per-processor Q_in/Q_out queue in the batched scheduler (a push of
	// an outgoing fork/exit/preempt, or a pop of a prefetched ready
	// thread). It replaces the per-operation SchedLockOp of the direct
	// path.
	SchedLocalOp Duration
	// SchedBatchMove is the per-thread cost of moving one entry between
	// Q_in, the ordered list R, and a Q_out during a scheduler pass
	// (inside the single SchedLockOp critical section).
	SchedBatchMove Duration
	// SchedLockWindow is the virtual-time window within which scheduler
	// lock operations are considered to overlap (contend).
	SchedLockWindow Duration
	// SchedShardLockOp is the critical-section length of one ready-heap
	// operation under a per-worker shard lock in the sharded scheduler.
	// It is shorter than SchedLockOp because the protected structure is a
	// single small heap rather than the whole ready store.
	SchedShardLockOp Duration
	// SchedShardLockWindow is the contention window of one shard lock.
	// Only operations on the *same* shard contend, so the window is much
	// narrower than SchedLockWindow.
	SchedShardLockWindow Duration
	// SchedStealProbe is the cost of one steal probe: reading a victim
	// shard's published leftmost label and sizing the deviation bound
	// against the steal window.
	SchedStealProbe Duration

	// Memory system.

	// MallocBase is the user-level bookkeeping cost of malloc/free.
	MallocBase Duration
	// BrkSyscall is charged whenever the simulated heap must grow the
	// mapped region (an sbrk/mmap kernel call).
	BrkSyscall Duration
	// PageMap is charged per page newly mapped by a heap growth call.
	PageMap Duration
	// PageFirstTouch is charged the first time a mapped page is touched
	// (kernel zero-fill fault).
	PageFirstTouch Duration
	// TLBMiss is charged when a touched page misses the per-processor
	// TLB model.
	TLBMiss Duration
	// HeapLockWindow is the contention window of the allocator lock
	// (operation cost MallocBase).
	HeapLockWindow Duration
	// KernelLockOp and KernelLockWindow model the process address-space
	// lock serializing kernel memory calls (mmap/sbrk for stacks and
	// heap growth). Hold times are in the hundreds of microseconds
	// (Figure 3's 200-260 us stack-allocation overhead), so they
	// contend over a wider window than the user-level locks.
	KernelLockOp     Duration
	KernelLockWindow Duration
}

// Default returns the calibrated cost model for the modeled machine.
func Default() *CostModel {
	return &CostModel{
		ThreadCreate:    Micro(20.5), // Figure 3: unbound create, cached stack
		ThreadJoin:      Micro(6.0),  // calibrated: join with exited thread
		SemaSync:        Micro(19.0), // calibrated: includes one context switch
		SyncOp:          Micro(1.9),  // calibrated: uncontended user-level lock
		ContextSwitch:   Micro(11.0), // calibrated: unbound user-level switch
		StackAllocBase:  Micro(200),  // Figure 3 caption: 8 KB stack
		StackAllocMax:   Micro(260),  // Figure 3 caption: 1 MB stack
		SchedLockOp:     Micro(1.5),
		SchedLocalOp:    Micro(0.3), // uncontended push/pop on a per-proc queue
		SchedBatchMove:  Micro(0.5), // one Q_in/R/Q_out move inside the pass
		SchedLockWindow: Micro(100),
		// Sharded scheduler: a shard deque operation costs about what a
		// lock-free Q_in/Q_out push does plus the short lock hold, and
		// only same-shard operations contend, over a narrow window.
		SchedShardLockOp:     Micro(0.5),
		SchedShardLockWindow: Micro(25),
		SchedStealProbe:      Micro(0.2),
		MallocBase:           Micro(2.0),
		BrkSyscall:           Micro(60),
		PageMap:              Micro(2.5),
		PageFirstTouch:       Micro(40), // zero-fill one 8 KB page
		TLBMiss:              Duration(50),
		HeapLockWindow:       Micro(100),
		// Kernel address-space operations serialize over a wide window;
		// previously hardcoded in the machine, now sweepable.
		KernelLockOp:     Micro(150),
		KernelLockWindow: Micro(1000),
	}
}

// StackAlloc returns the cost of allocating a fresh stack of size bytes,
// interpolating between the one-page and 1 MB figures.
func (cm *CostModel) StackAlloc(size int64) Duration {
	const (
		minStack = 8 << 10
		maxStack = 1 << 20
	)
	if size <= minStack {
		return cm.StackAllocBase
	}
	if size >= maxStack {
		return cm.StackAllocMax
	}
	frac := float64(size-minStack) / float64(maxStack-minStack)
	return cm.StackAllocBase + Duration(frac*float64(cm.StackAllocMax-cm.StackAllocBase))
}
