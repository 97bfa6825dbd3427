package main

import (
	"fmt"
	"time"

	"spthreads/internal/core"
	"spthreads/internal/memsim"
	"spthreads/internal/metrics"
	"spthreads/internal/sched"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

// Layer probes: single-goroutine loops over one layer's hot call, run
// only in trace mode and never gating. They are the one part of the
// benchmark that reaches below package pthread.

const (
	probeMinTime = 50 * time.Millisecond
	probeRounds  = 5
)

// probeSink receives a value computed from every probed call's result,
// and is printed with the results: the compiler cannot drop a call whose
// result reaches output.
var probeSink uint64

// probe measures f, which performs n operations and returns a value
// that depends on all of them. The iteration count is calibrated until
// one call takes at least probeMinTime; the result is the fastest of
// probeRounds such calls, in nanoseconds per operation.
func probe(f func(n int) uint64) float64 {
	timed := func(n int) time.Duration {
		start := time.Now()
		probeSink += f(n)
		return time.Since(start)
	}
	n := 1
	for {
		d := timed(n)
		if d >= probeMinTime {
			break
		}
		// Aim a fifth past the floor; at least double so a sub-resolution
		// first reading cannot stall calibration.
		grow := float64(probeMinTime) * 1.2 / float64(max(d, time.Microsecond))
		n = int(float64(n) * max(grow, 2))
	}
	best := timed(n)
	for i := 1; i < probeRounds; i++ {
		best = min(best, timed(n))
	}
	return float64(best) / float64(n)
}

// loadedPolicy returns a policy holding n live threads with only the
// returned one dispatched. Under ADF the other n-1 are blocked
// placeholders in serial order — the ordered structure's worst case;
// under FIFO they sit in the ready queue.
func loadedPolicy(kind sched.Kind, n int) (core.Policy, *core.Thread) {
	p := sched.MustNew(kind, sched.Options{Procs: 1})
	root := &core.Thread{ID: 1}
	p.OnCreate(nil, root)
	if p.Next(0) != root {
		panic("probe: root was not dispatched")
	}
	for i := 2; i <= n; i++ {
		c := &core.Thread{ID: int64(i)}
		if p.OnCreate(root, c) {
			p.OnReady(root, 0)
			p.OnBlock(c)
			if p.Next(0) != root {
				panic("probe: preempted root was not dispatched")
			}
		} else {
			p.OnReady(c, 0)
		}
	}
	return p, root
}

// cycleProbe times one preempt/dispatch cycle (OnReady + Next).
func cycleProbe(kind sched.Kind, live int) float64 {
	p, cur := loadedPolicy(kind, live)
	return probe(func(n int) uint64 {
		var sum uint64
		for i := 0; i < n; i++ {
			p.OnReady(cur, 0)
			cur = p.Next(0)
			sum += uint64(cur.ID)
		}
		return sum
	})
}

// forkExitProbe times what the scheduler does for one empty thread under
// ADF: place the child (the parent is preempted), re-ready the parent,
// retire the child, dispatch the parent again. Forks follow a binary
// tree of depth forkProbeDepth, as the spawn workload's do, so the
// DePa labels being compared have a realistic length.
func forkExitProbe() float64 {
	p, root := loadedPolicy(sched.ADF, 100)
	id := int64(1000)
	var tree func(parent *core.Thread, depth int, budget *int) uint64
	tree = func(parent *core.Thread, depth int, budget *int) uint64 {
		var sum uint64
		for side := 0; side < 2 && depth > 0 && *budget > 0; side++ {
			*budget--
			id++
			c := &core.Thread{ID: id}
			if !p.OnCreate(parent, c) {
				panic("probe: ADF did not run the child first")
			}
			p.OnReady(parent, 0)
			sum += tree(c, depth-1, budget)
			p.OnExit(c)
			if p.Next(0) != parent {
				panic("probe: ADF did not resume the parent after its child")
			}
			sum += uint64(id)
		}
		return sum
	}
	return probe(func(n int) uint64 {
		var sum uint64
		for n > 0 {
			sum += tree(root, forkProbeDepth, &n)
		}
		return sum
	})
}

const forkProbeDepth = 12

// depaLabels returns two depth-64 labels that differ only in their last
// bit, the longest compare.
func depaLabels() (a, b core.DepaLabel) {
	l := core.RootDepaLabel()
	for i := 0; i < 63; i++ {
		l.Fork()
	}
	b = l.Fork()
	return l, b
}

// runEmptyProbe times a whole pthread.Run of an empty root thread, in
// microseconds.
func runEmptyProbe(backend pthread.Backend) float64 {
	cfg := pthread.Config{Backend: backend, Procs: 1, DefaultStack: pthread.SmallStackSize}
	return probe(func(n int) uint64 {
		var sum uint64
		for i := 0; i < n; i++ {
			st, err := pthread.Run(cfg, func(*pthread.T) {})
			if err != nil {
				panic(fmt.Sprintf("probe: empty run: %v", err))
			}
			sum += uint64(st.ThreadsCreated)
		}
		return sum
	}) / 1e3
}

// runProbes measures every layer probe and returns the rows by name.
func runProbes() map[string]float64 {
	rows := map[string]float64{
		"sched.adf_cycle_n100_ns":     cycleProbe(sched.ADF, 100),
		"sched.adf_cycle_n10000_ns":   cycleProbe(sched.ADF, 10000),
		"sched.adf_fork_exit_ns":      forkExitProbe(),
		"sched.fifo_cycle_ns":         cycleProbe(sched.FIFO, 100),
		"pthread.run_empty_native_us": runEmptyProbe(pthread.BackendNative),
		"pthread.run_empty_sim_us":    runEmptyProbe(pthread.BackendSim),
	}

	la, lb := depaLabels()
	rows["core.depa_fork_ns"] = probe(func(n int) uint64 {
		var sum uint64
		for i := 0; i < n; i++ {
			l := la // Fork extends its receiver: fork a copy, stay at depth 64
			sum += uint64(l.Fork().Depth())
		}
		return sum
	})
	rows["core.depa_compare_ns"] = probe(func(n int) uint64 {
		var sum uint64
		for i := 0; i < n; i++ {
			sum += uint64(la.Compare(lb) + 2)
		}
		return sum
	})

	mem := memsim.New(vtime.Default(), pthread.SmallStackSize, 0)
	rows["memsim.alloc_free_ns"] = probe(func(n int) uint64 {
		var sum uint64
		for i := 0; i < n; i++ {
			addr, cost, _ := mem.Alloc(1024)
			sum += uint64(addr) + uint64(cost+mem.Free(addr, 1024))
		}
		return sum
	})
	const region = 1 << 20
	tlb := memsim.NewTLB(64)
	base, _, _ := mem.Alloc(region)
	rows["memsim.touch_ns"] = probe(func(n int) uint64 {
		var sum uint64
		for i := 0; i < n; i++ {
			sum += uint64(mem.Touch(tlb, base+int64(i)*memsim.PageSize%region, 512))
		}
		return sum
	})

	ring := trace.NewRing(1 << 12)
	buf := make([]trace.Event, 0, ring.Cap())
	rows["trace.ring_record_ns"] = probe(func(n int) uint64 {
		var sum uint64
		for i := 0; i < n; i++ {
			ring.Record(vtime.Time(i), 0, int64(i), trace.KindDispatch, 0)
			if i%ring.Cap() == ring.Cap()-1 {
				// A full ring drops instead of recording: drain it, as the
				// runtime's collector does.
				buf = ring.Drain(buf[:0])
				sum += uint64(len(buf))
			}
		}
		return sum + uint64(ring.Dropped())
	})

	reg := metrics.NewRegistry()
	hist, ctr := reg.Histogram("probe.hist"), reg.Counter("probe.counter")
	rows["metrics.hist_observe_ns"] = probe(func(n int) uint64 {
		for i := 0; i < n; i++ {
			hist.Observe(int64(i))
		}
		return uint64(hist.Count())
	})
	rows["metrics.counter_add_ns"] = probe(func(n int) uint64 {
		for i := 0; i < n; i++ {
			ctr.Add(1)
		}
		return uint64(ctr.Value())
	})
	return rows
}
