// Package memsim models the memory system of the simulated machine: a
// simulated heap grown by kernel calls, page-granular first-touch costs,
// per-processor TLBs, and the Solaris-style thread-stack allocator with
// its default-size stack cache.
//
// The package deals only in simulated addresses and virtual-time charges.
// Benchmark code that needs real backing storage allocates ordinary Go
// slices alongside the simulated allocation; the simulation never reads
// or writes through simulated addresses.
package memsim

import (
	"fmt"

	"spthreads/internal/vtime"
)

// PageSize is the simulated page size (8 KB, as on the UltraSPARC).
const PageSize int64 = 8 << 10

// DefaultChunk is the granularity at which the simulated heap asks the
// kernel for more address space.
const DefaultChunk int64 = 1 << 20

// Stats counts memory-system events over a run.
type Stats struct {
	Allocs       int64 // heap allocations
	Frees        int64 // heap frees
	BrkCalls     int64 // kernel calls to grow the mapped region
	PagesMapped  int64 // pages mapped by those calls
	FirstTouches int64 // zero-fill page faults
	TLBMisses    int64 // per-processor TLB misses (summed)
	PageFaults   int64 // always 0; no paging is modelled
	StackAllocs  int64 // fresh stacks carved (cache misses)
	StackReuses  int64 // stacks served from the default-size cache
}

// System is the simulated memory system. It is manipulated only by the
// goroutine that holds the simulated machine (exactly one at a time), so
// it needs no internal locking.
type System struct {
	cm *vtime.CostModel

	brk      int64 // next unused simulated address
	reserved int64 // bytes of address space already mapped

	free map[int64][]int64 // rounded size -> free simulated addresses

	liveHeap  int64
	hwmHeap   int64
	liveStack int64
	hwmStack  int64
	hwmTotal  int64

	touched []uint64 // bit p%64 of word p/64: page p has been zero-filled; grows with reserved

	stackCache     []int64 // cached stacks (default size only)
	stackCacheSize int64

	stats Stats
}

// New creates a memory system with the given cost model and default
// thread stack size (the only size the stack cache retains). The third
// argument is unused; it stays so the benchmark module's three-argument
// call still compiles.
func New(cm *vtime.CostModel, defaultStack, _ int64) *System {
	return &System{
		cm:             cm,
		brk:            PageSize, // keep address 0 invalid
		reserved:       PageSize,
		free:           make(map[int64][]int64),
		touched:        make([]uint64, 1),
		stackCacheSize: defaultStack,
	}
}

const allocAlign = 16

func roundSize(n int64) int64 {
	if n <= 0 {
		n = allocAlign
	}
	return (n + allocAlign - 1) &^ (allocAlign - 1)
}

// grow maps enough address space for a bump allocation of n bytes and
// returns the kernel-time charge.
func (s *System) grow(n int64) vtime.Duration {
	var cost vtime.Duration
	for s.brk+n > s.reserved {
		chunk := DefaultChunk
		if n > chunk {
			chunk = (n + PageSize - 1) &^ (PageSize - 1)
		}
		s.reserved += chunk
		s.stats.BrkCalls++
		pages := chunk / PageSize
		s.stats.PagesMapped += pages
		cost += s.cm.BrkSyscall + vtime.Duration(pages)*s.cm.PageMap
	}
	for int64(len(s.touched))*64 < s.reserved/PageSize {
		s.touched = append(s.touched, 0)
	}
	return cost
}

// touch marks page p zero-filled and reports whether it already was.
func (s *System) touch(p int64) bool {
	w, bit := &s.touched[p/64], uint64(1)<<(p%64)
	old := *w&bit != 0
	*w |= bit
	return old
}

func (s *System) updateHWM() {
	if s.liveHeap > s.hwmHeap {
		s.hwmHeap = s.liveHeap
	}
	if s.liveStack > s.hwmStack {
		s.hwmStack = s.liveStack
	}
	if t := s.liveHeap + s.liveStack; t > s.hwmTotal {
		s.hwmTotal = t
	}
}

// Alloc allocates n bytes of simulated heap and returns the simulated
// base address, the virtual-time charge, and whether the allocation
// required fresh address space (a kernel call) rather than recycling a
// freed block.
func (s *System) Alloc(n int64) (addr int64, cost vtime.Duration, fresh bool) {
	n = roundSize(n)
	s.stats.Allocs++
	cost = s.cm.MallocBase
	if lst := s.free[n]; len(lst) > 0 {
		addr = lst[len(lst)-1]
		s.free[n] = lst[:len(lst)-1]
	} else {
		cost += s.grow(n)
		addr = s.brk
		s.brk += n
		fresh = true
	}
	s.liveHeap += n
	s.updateHWM()
	return addr, cost, fresh
}

// Free releases a simulated heap allocation made with Alloc. The size
// must match the original request.
func (s *System) Free(addr, n int64) vtime.Duration {
	n = roundSize(n)
	s.stats.Frees++
	s.liveHeap -= n
	if s.liveHeap < 0 {
		panic(fmt.Sprintf("memsim: negative live heap after Free(%d, %d)", addr, n))
	}
	s.free[n] = append(s.free[n], addr)
	return s.cm.MallocBase
}

// AllocStack allocates a thread stack of the given size, consulting the
// default-size stack cache first. fresh reports whether a new stack had
// to be mapped (a kernel call).
func (s *System) AllocStack(size int64) (addr int64, cost vtime.Duration, fresh bool) {
	if size == s.stackCacheSize && len(s.stackCache) > 0 {
		addr = s.stackCache[len(s.stackCache)-1]
		s.stackCache = s.stackCache[:len(s.stackCache)-1]
		s.stats.StackReuses++
		// Cached stacks remained part of the live footprint; nothing to
		// add and (almost) nothing to charge.
		return addr, 0, false
	}
	s.stats.StackAllocs++
	cost = s.grow(size)
	addr = s.brk
	s.brk += size
	s.liveStack += size
	s.updateHWM()
	return addr, cost + s.cm.StackAlloc(size), true
}

// FreeStack returns a stack. Default-size stacks go to the cache and stay
// part of the live footprint (as the Solaris library keeps them mapped);
// other sizes are unmapped.
func (s *System) FreeStack(addr, size int64) vtime.Duration {
	if size == s.stackCacheSize {
		s.stackCache = append(s.stackCache, addr)
		return 0
	}
	s.liveStack -= size
	if s.liveStack < 0 {
		panic("memsim: negative live stack")
	}
	return s.cm.MallocBase
}

// Touch charges for an access to [addr, addr+n) through the given TLB:
// first-touch zero-fill for untouched pages and TLB misses.
func (s *System) Touch(tlb *TLB, addr, n int64) vtime.Duration {
	if n <= 0 {
		return 0
	}
	var cost vtime.Duration
	first := addr / PageSize
	last := (addr + n - 1) / PageSize
	for p := first; p <= last; p++ {
		if !s.touch(p) {
			s.stats.FirstTouches++
			cost += s.cm.PageFirstTouch
		}
		if tlb != nil && !tlb.Access(p) {
			s.stats.TLBMisses++
			cost += s.cm.TLBMiss
		}
	}
	return cost
}

// Prefault marks the pages of [addr, addr+n) as already zero-filled
// without charging virtual time — modeling data loaded during an
// untimed preprocessing phase (the paper excludes input loading and
// preprocessing from its timings).
func (s *System) Prefault(addr, n int64) {
	if n <= 0 {
		return
	}
	first := addr / PageSize
	last := (addr + n - 1) / PageSize
	for p := first; p <= last; p++ {
		s.touch(p)
	}
}

// LiveHeap returns the current simulated heap footprint in bytes.
func (s *System) LiveHeap() int64 { return s.liveHeap }

// LiveStack returns the current simulated stack footprint in bytes,
// including cached default-size stacks.
func (s *System) LiveStack() int64 { return s.liveStack }

// HeapHWM returns the heap high-water mark in bytes.
func (s *System) HeapHWM() int64 { return s.hwmHeap }

// StackHWM returns the stack high-water mark in bytes.
func (s *System) StackHWM() int64 { return s.hwmStack }

// TotalHWM returns the high-water mark of heap plus stacks.
func (s *System) TotalHWM() int64 { return s.hwmTotal }

// Stats returns a copy of the event counters.
func (s *System) Stats() Stats { return s.stats }
