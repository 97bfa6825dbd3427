package analyze

import (
	"fmt"

	"spthreads/internal/memsim"
	"spthreads/internal/spaceprof"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

// This file computes the two sides of the paper's space bound from the
// recorded events alone:
//
//   - S₁, the serial space: the footprint a 1-processor depth-first
//     execution of the same DAG would reach. The recorded allocations
//     are replayed through a fresh memsim.System in serial depth-first
//     order — at a fork the child runs to completion before the parent
//     resumes — which is exactly the 1DF-schedule the paper's bound is
//     stated against.
//   - The measured footprint: the same events replayed in record order
//     (the simulated machine serializes memory operations, so record
//     order is the machine's own operation order), reproducing the
//     live run's footprint curve and peaks when no events were dropped.
//
// Free events carry sizes, not addresses, so both replays keep
// per-size LIFO pools of the simulated addresses they allocated and
// skip frees with no pooled match (an allocation predating the trace);
// skipping is conservative — it can only raise the replayed footprint.

type spaceReplay struct {
	mem   *memsim.System
	prof  *spaceprof.Profiler
	pool  map[int64][]int64
	clock vtime.Time // serial virtual time: execution accumulated so far
	live  int
	def   int64 // default stack size (for threads with no stack record)
}

func (sr *spaceReplay) sample() {
	sr.prof.Sample(sr.clock, sr.mem.LiveHeap(), sr.mem.LiveStack(), sr.live)
}

// serialSpace replays the DAG depth-first on one serial clock and
// returns S₁ and the serial footprint curve.
func (a *analysis) serialSpace(defaultStack int64, every vtime.Duration) (int64, *spaceprof.Profiler) {
	sr := &spaceReplay{
		mem:  memsim.New(vtime.Default(), defaultStack, 0),
		prof: spaceprof.New(every),
		pool: make(map[int64][]int64),
		def:  defaultStack,
	}
	// Replay every parentless thread (the root; orphans only appear
	// when create events were dropped) in id order.
	for _, id := range a.order {
		if r := a.threads[id]; r.parent == 0 || a.threads[r.parent] == nil {
			sr.replay(a, r)
		}
	}
	return sr.mem.TotalHWM(), sr.prof
}

func (sr *spaceReplay) replay(a *analysis, r *threadRec) {
	if r == nil {
		return
	}
	st := r.stack
	if st <= 0 {
		st = sr.def
	}
	addr, _, _ := sr.mem.AllocStack(st)
	sr.live++
	sr.sample()
	cur := r.createAt
	for _, o := range r.ops {
		sr.clock += vtime.Time(r.execBetween(cur, o.at))
		cur = o.at
		switch o.kind {
		case opFork:
			sr.replay(a, a.threads[o.other])
		case opJoin:
			// Depth-first: the joined child already ran to completion.
		case opAlloc:
			ad, _, _ := sr.mem.Alloc(o.bytes)
			sr.pool[o.bytes] = append(sr.pool[o.bytes], ad)
			sr.sample()
		case opFree:
			if lst := sr.pool[o.bytes]; len(lst) > 0 {
				sr.mem.Free(lst[len(lst)-1], o.bytes)
				sr.pool[o.bytes] = lst[:len(lst)-1]
				sr.sample()
			}
		}
	}
	end := r.exitAt
	if !r.exited {
		end = a.horizon
	}
	sr.clock += vtime.Time(r.execBetween(cur, end))
	sr.mem.FreeStack(addr, st)
	sr.live--
	sr.sample()
}

// Footprint replays the trace's memory events in record order and
// returns the run's footprint curve: live heap, stack and thread count
// after every footprint change, coalesced to one peak sample per
// `every` virtual cycles (0 keeps every sample). A wall-ns trace's
// stamps are converted to cycles at the modeled clock rate. A trace
// that dropped events would under-report the footprint, so Footprint
// refuses it.
func Footprint(rec *trace.Recorder, every vtime.Duration) (*spaceprof.Profiler, error) {
	if n := rec.Dropped(); n > 0 {
		return nil, fmt.Errorf("analyze: the trace dropped %d events; its footprint replay would under-report", n)
	}
	events := rec.Events()
	if len(events) == 0 {
		return nil, errEmpty
	}
	prof := spaceprof.New(every)
	footprint(events, rec.Unit(), rootStack(events), prof)
	return prof, nil
}

// footprint replays the memory events in record order, feeding prof
// (nil: none) a sample after each footprint change, and returns the
// replayed high-water marks. The live count follows creates and exits;
// an exit frees its thread's stack at At+Arg, when the machine did.
func footprint(events []trace.Event, unit trace.TimeUnit, defaultStack int64, prof *spaceprof.Profiler) (heap, stack, total int64) {
	mem := memsim.New(vtime.Default(), defaultStack, 0)
	pool := make(map[int64][]int64)
	type stk struct{ addr, size int64 }
	stacks := make(map[int64]stk)
	live := 0
	for _, e := range events {
		at := e.At
		switch e.Kind {
		case trace.KindCreate:
			live++
			continue
		case trace.KindStackAlloc:
			ad, _, _ := mem.AllocStack(e.Arg)
			stacks[e.Thread] = stk{ad, e.Arg}
		case trace.KindExit:
			live--
			if s, ok := stacks[e.Thread]; ok {
				mem.FreeStack(s.addr, s.size)
				delete(stacks, e.Thread)
			}
			at += vtime.Time(e.Arg)
		case trace.KindAlloc:
			ad, _, _ := mem.Alloc(e.Arg)
			pool[e.Arg] = append(pool[e.Arg], ad)
		case trace.KindFree:
			if lst := pool[e.Arg]; len(lst) > 0 {
				mem.Free(lst[len(lst)-1], e.Arg)
				pool[e.Arg] = lst[:len(lst)-1]
			}
		default:
			continue
		}
		prof.Sample(vtime.Time(unit.Cycles(int64(at))), mem.LiveHeap(), mem.LiveStack(), live)
	}
	return mem.HeapHWM(), mem.StackHWM(), mem.TotalHWM()
}

// rootStack returns the root thread's stack size, which sizes the
// replayed stack cache: both backends map the root's stack, with default
// attributes, before any other. A trace without one gets a small page.
func rootStack(events []trace.Event) int64 {
	for _, e := range events {
		if e.Kind == trace.KindStackAlloc {
			return e.Arg
		}
	}
	return 8 << 10
}
