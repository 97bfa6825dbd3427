package main

import (
	"fmt"
	"runtime"
	"time"

	"spthreads/pthread"
)

// program is one pthread.Run of a workload.
type program struct {
	name string
	// run is the root thread. rec is nil except on traced repetitions.
	run func(t *pthread.T, rec *recorder)
	// checksum returns the last run's result; called after the run ends.
	checksum func() float64
	// slots is how many per-thread span slices a traced run needs.
	slots int
	// ops is the op count of one run when it is not the thread count.
	ops func() int64

	// What a correct run gives. wantThreads < 0 and wantDigest empty
	// mean "not known beforehand": the first run at Procs = 1 sets them
	// and every later run, at either processor count, must agree.
	wantSum     float64
	haveSum     bool
	wantThreads int64
	wantDigest  map[int]string // sim only: by processor count
}

// workload is a named list of programs run one after the other: a
// repetition (for paper7 and sim, a "suite pass") runs each once.
type workload struct {
	name     string
	backend  pthread.Backend
	procsHi  int // P of the pP arm
	programs []*program
	syncSz   syncSizes // syncpipe only
}

// armProcs lists the processor counts of the workload's arms: 1 and P,
// or just 1 on a one-core host where P = 1.
func (w *workload) armProcs() []int {
	if w.procsHi == 1 {
		return []int{1}
	}
	return []int{1, w.procsHi}
}

var workloadNames = []string{"spawn", "alloc", "syncpipe", "paper7", "sim"}

const (
	spawnThreads    = 65536
	allocThreads    = 32768
	simSpawnThreads = 16384
	simProcs        = 8
	maxNativeProcs  = 4
	tinyDivisor     = 64
)

// nativeProcs is P for the native workloads: min(nproc, 4).
func nativeProcs() int { return min(runtime.NumCPU(), maxNativeProcs) }

func treeProgram(name string, threads int, seed uint64, alloc bool) *program {
	tp := &treeProg{nodes: buildTree(threads, seed, alloc), alloc: alloc, marks: make([]uint32, threads)}
	p := &program{name: name, slots: threads, run: tp.run, checksum: tp.checksum}
	p.wantSum, p.wantThreads = tp.expected()
	p.haveSum = true
	return p
}

// newWorkload generates a workload's inputs from the seed. tiny divides
// every size by 64 (tests only). Expected results that can be computed
// from the inputs are filled in here; frozen ones are added by
// applyFrozen.
func newWorkload(name string, seed uint64, tiny bool) (*workload, error) {
	w := &workload{name: name, backend: pthread.BackendNative, procsHi: nativeProcs()}
	div := 1
	kernels, syncSz := kernelsFull, syncFull
	if tiny {
		div, kernels, syncSz = tinyDivisor, kernelsTiny, syncTiny
	}
	switch name {
	case "spawn":
		w.programs = []*program{treeProgram("tree", spawnThreads/div, seed, false)}
	case "alloc":
		w.programs = []*program{treeProgram("tree", allocThreads/div, seed, true)}
	case "syncpipe":
		w.syncSz = syncSz
		pipe := &pipelineProg{sz: syncSz, seed: seed}
		bar := &barrierProg{sz: syncSz}
		pp := &pingPongProg{sz: syncSz, seed: seed}
		w.programs = []*program{
			{name: "pipeline", slots: syncSz.stages + 1, run: pipe.run, checksum: pipe.checksum, ops: pipe.ops,
				wantSum: pipe.expected(), haveSum: true, wantThreads: int64(syncSz.stages) + 1},
			{name: "barrier", slots: syncSz.parties + 1, run: bar.run, checksum: bar.checksum, ops: bar.ops,
				wantSum: bar.expected(), haveSum: true, wantThreads: int64(syncSz.parties) + 1},
			{name: "pingpong", slots: 3, run: pp.run, checksum: pp.checksum, ops: pp.ops,
				wantSum: pp.expected(), haveSum: true, wantThreads: 3},
		}
	case "paper7":
		w.programs = kernelPrograms(kernels, seed)
		for _, p := range w.programs {
			p.wantThreads = -1
		}
	case "sim":
		w.backend, w.procsHi = pthread.BackendSim, simProcs
		w.programs = kernelPrograms(kernels, seed)
		for _, p := range w.programs {
			p.wantThreads = -1
		}
		w.programs = append(w.programs, treeProgram("spawn", simSpawnThreads/div, seed, false))
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}

// sample is what one run of one program measured.
type sample struct {
	wallNS   int64
	st       pthread.Stats
	sum      float64
	allocB   uint64 // Go heap bytes allocated during the run
	mallocs  uint64 // Go heap objects allocated during the run
	gcCycles uint32
	gcPause  uint64 // ns
	leaked   int    // goroutines above the baseline 100 ms after the run
	fail     string // first failure rule the run broke; "" if none
}

// runner executes programs and applies the failure rules.
type runner struct {
	w        *workload
	baseline int // goroutines before any run
}

func newRunner(w *workload) *runner {
	return &runner{w: w, baseline: runtime.NumGoroutine()}
}

// ambientProcs is the GOMAXPROCS the process started with: what the
// host block reports and what the P check is made against.
var ambientProcs = runtime.GOMAXPROCS(0)

// goProcs is the GOMAXPROCS a run gets. Native runs keep the process's
// own. The simulator gets 1: it runs one goroutine at a time, and a Go
// processor with nothing to run parks its OS thread and is woken again
// at every handoff. On a virtual machine that futex round trip costs
// more than the handoff and varies with the host's load: under
// GOMAXPROCS = 2 a pass made some 7 000 voluntary context switches
// against 60 under 1, and ten runs of one seed spread by 10-28 % against
// 4-5 %. (Native Procs = 1 runs have the same idle processor, but they
// also lose the core the collector was using; measured, they got no
// steadier, so they are left alone.)
func (r *runner) goProcs() int {
	if r.w.backend == pthread.BackendSim {
		return 1
	}
	return ambientProcs
}

// config is the whole configuration surface the benchmark uses: backend,
// processor count and the paper's small stack. Everything else is the
// library's default, so the benchmark measures whatever the default is.
func (r *runner) config(procs int) pthread.Config {
	return pthread.Config{Backend: r.w.backend, Procs: procs, DefaultStack: pthread.SmallStackSize}
}

// leakWait is how long goroutines get to return to the baseline, and
// leakPolls how many times at least they are given the processor in that
// time: the hypervisor now and then stops the whole machine for 100 ms
// (once in 280 runs, with host_steal at 0.7 %), and time in which nothing
// could run must not read as a leak.
const (
	leakWait  = 100 * time.Millisecond
	leakPolls = 100
)

func (r *runner) leaked() int {
	deadline := time.Now().Add(leakWait)
	for polls := 0; ; polls++ {
		extra := runtime.NumGoroutine() - r.baseline
		if extra <= 0 || (polls >= leakPolls && time.Now().After(deadline)) {
			return max(extra, 0)
		}
		time.Sleep(time.Millisecond)
	}
}

// exec runs p once at procs, from a collected heap, and checks it.
func (r *runner) exec(p *program, procs int, cfg pthread.Config, rec *recorder) sample {
	var m0, m1 runtime.MemStats
	if g := r.goProcs(); runtime.GOMAXPROCS(0) != g {
		runtime.GOMAXPROCS(g)
	}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	st, err := pthread.Run(cfg, func(t *pthread.T) { p.run(t, rec) })
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	s := sample{
		wallNS:   int64(wall),
		st:       st,
		sum:      p.checksum(),
		allocB:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		gcCycles: m1.NumGC - m0.NumGC,
		gcPause:  m1.PauseTotalNs - m0.PauseTotalNs,
		leaked:   r.leaked(),
	}
	if rec != nil {
		at := int64(start.Sub(rec.base))
		rec.addSeq(0, spanProgram, 0, at, at+int64(wall))
	}
	s.fail = r.check(p, procs, s, err)
	return s
}

// check applies the five failure rules and returns the first one broken.
func (r *runner) check(p *program, procs int, s sample, err error) string {
	if err != nil {
		return fmt.Sprintf("%s p=%d: run error: %v", p.name, procs, err)
	}
	if !p.haveSum {
		p.wantSum, p.haveSum = s.sum, true
	}
	if s.sum != p.wantSum {
		return fmt.Sprintf("%s p=%d: checksum %v, want %v", p.name, procs, s.sum, p.wantSum)
	}
	if p.wantThreads < 0 {
		p.wantThreads = s.st.ThreadsCreated
	}
	if s.st.ThreadsCreated != p.wantThreads {
		return fmt.Sprintf("%s p=%d: %d threads created, want %d", p.name, procs, s.st.ThreadsCreated, p.wantThreads)
	}
	if s.leaked > 0 {
		return fmt.Sprintf("%s p=%d: %d goroutines still alive %v after the run", p.name, procs, s.leaked, leakWait)
	}
	if r.w.backend == pthread.BackendSim {
		d := simDigest(s.st)
		if p.wantDigest == nil {
			p.wantDigest = map[int]string{}
		}
		if want, ok := p.wantDigest[procs]; !ok {
			p.wantDigest[procs] = d
		} else if d != want {
			return fmt.Sprintf("%s p=%d: simulated statistics changed:\n  got  %s\n  want %s", p.name, procs, d, want)
		}
	}
	return ""
}

// simDigest spells out every scalar statistic of a simulated run; two
// runs agree exactly when their digests are equal.
func simDigest(st pthread.Stats) string {
	return fmt.Sprintf("policy=%s procs=%d time=%d work=%d span=%d threads=%d dummies=%d peaklive=%d heap=%d stack=%d total=%d mem=%+v",
		st.Policy, st.NumProcs, int64(st.Time), int64(st.Work), int64(st.Span), st.ThreadsCreated, st.DummyThreads,
		st.PeakLive, st.HeapHWM, st.StackHWM, st.TotalHWM, st.Mem)
}

// ops is the op count of one finished run of p.
func (p *program) opCount(s sample) int64 {
	if p.ops != nil {
		return p.ops()
	}
	return s.st.ThreadsCreated
}
