package main

import (
	"fmt"
	"runtime"
	"time"

	"spthreads/pthread"
)

const (
	setupRounds = 3 // set-up is repeated and its median reported
	setupYards  = 3 // yardstick runs after every set-up round
	warmups     = 2 // untimed repetitions per arm in every set-up round
	minPasses   = 3 // timed passes per arm, however short --seconds is
	// traceReserve is what a traced run keeps back from --seconds for
	// the layer probes (13 probes of at least 6 x 50 ms) and the span file.
	traceReserve = 6 * time.Second
)

// arm holds every sample of one (processor count, traced or not) pair:
// samples[i] are the runs of program i, in pass order.
type arm struct {
	procs   int
	traced  bool
	samples [][]sample
	// Traced arms only: the timings drawn from every pass's spans, and
	// the spans of the last pass, kept for the span file.
	timings   spanTimings
	lastSpans []span
}

func newArm(w *workload, procs int, traced bool) *arm {
	return &arm{procs: procs, traced: traced, samples: make([][]sample, len(w.programs))}
}

func (a *arm) passes() int { return len(a.samples[0]) }

// perProgram returns, per program, the median of f over its samples.
func (a *arm) perProgram(f func(sample) float64) []float64 {
	out := make([]float64, len(a.samples))
	for i, ss := range a.samples {
		vals := make([]float64, len(ss))
		for j, s := range ss {
			vals[j] = f(s)
		}
		out[i] = median(vals)
	}
	return out
}

// sumOfMedians is the multi-program aggregate of the end-to-end
// metrics: the sum over programs of each program's median.
func (a *arm) sumOfMedians(f func(sample) float64) float64 {
	total := 0.0
	for _, m := range a.perProgram(f) {
		total += m
	}
	return total
}

// passTotals returns, per pass, the sum of f over the pass's programs.
func (a *arm) passTotals(f func(sample) float64) []float64 {
	out := make([]float64, a.passes())
	for _, ss := range a.samples {
		for j, s := range ss {
			out[j] += f(s)
		}
	}
	return out
}

func wallMS(s sample) float64  { return float64(s.wallNS) / 1e6 }
func peakKB(s sample) float64  { return float64(s.st.TotalHWM) / 1024 }
func allocMB(s sample) float64 { return float64(s.allocB) / (1 << 20) }

// run is one measured invocation of one workload.
type run struct {
	w      *workload
	r      *runner
	seed   uint64
	setupS []float64
	// yard times the yardstick once before every arm's pass and once after
	// the last; setupYard setupYards times after every set-up round.
	yard, setupYard []float64
	yardSink        float64
	arms            []*arm // p1 and pP untraced; in trace mode also both traced
	attempted       int
	failures        []string
	measured        time.Duration
	// stealPct is the share of the machine's CPU time the hypervisor gave
	// to someone else during the timed passes (-1 when unknown): the first
	// thing to look at when a run's wall times are out of line.
	stealPct float64
}

func (m *run) arm(procs int, traced bool) *arm {
	for _, a := range m.arms {
		if a.procs == procs && a.traced == traced {
			return a
		}
	}
	return nil
}

func (m *run) p1() *arm { return m.arm(1, false) }
func (m *run) pP() *arm { return m.arm(m.w.procsHi, false) }

// pass runs every program of the workload once on arm a.
func (m *run) pass(a *arm) {
	var rec *recorder
	if a.traced {
		slots := 0
		for _, p := range m.w.programs {
			slots = max(slots, p.slots)
		}
		rec = newRecorder(uint32(a.passes()), slots)
	}
	var spans []span
	for i, p := range m.w.programs {
		cfg := m.r.config(a.procs)
		if a.traced {
			attachInstruments(&cfg)
			rec.prog = uint32(i)
		}
		s := m.r.exec(p, a.procs, cfg, rec)
		m.attempted++
		if s.fail != "" {
			m.failures = append(m.failures, s.fail)
		}
		a.samples[i] = append(a.samples[i], s)
		if rec != nil {
			taken := rec.take()
			a.timings.add(taken)
			spans = append(spans, taken...)
		}
	}
	if rec != nil {
		a.lastSpans = spans
	}
}

// setUp generates the workload from the seed, attaches what a correct
// run must give, and warms both arms up. It is the whole of what
// setup_s times.
func setUp(name string, seed uint64, tiny bool) (*workload, *runner, error) {
	w, err := newWorkload(name, seed, tiny)
	if err != nil {
		return nil, nil, err
	}
	if w.backend == pthread.BackendNative {
		// Refuse to measure a pP arm the host cannot run in parallel: the
		// row would report concurrency as parallelism. (The simulator runs
		// one host goroutine at a time, so cores do not matter to it.)
		if ambientProcs < w.procsHi {
			return nil, nil, fmt.Errorf("GOMAXPROCS = %d < P = %d: raise GOMAXPROCS to measure the p%d arm", ambientProcs, w.procsHi, w.procsHi)
		}
		// Before the frozen values, so that set-up does the same work on
		// every seed and a frozen seed's reference is held against them too.
		if err := referenceOnSim(w); err != nil {
			return nil, nil, err
		}
	}
	if !tiny {
		if err := applyFrozen(w, seed); err != nil {
			return nil, nil, err
		}
	}
	r := newRunner(w)
	for i := 0; i < warmups; i++ {
		for _, procs := range w.armProcs() {
			for _, p := range w.programs {
				if s := r.exec(p, procs, r.config(procs), nil); s.fail != "" {
					return nil, nil, fmt.Errorf("warm-up failed: %s", s.fail)
				}
			}
		}
	}
	return w, r, nil
}

// measure sets the workload up setupRounds times, then runs timed
// passes for about the given duration: the two arms alternate pass by
// pass, and which goes first alternates too, so drift in the host
// charges both equally. In trace mode every pass also runs both arms
// with spans and the metrics registry attached.
func measure(name string, seed uint64, seconds float64, trace, tiny bool) (*run, error) {
	m := &run{seed: seed}
	yardDiv := 1
	if tiny {
		yardDiv = tinyDivisor
	}
	ys := newYardstick(yardDiv)
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		w, r, err := setUp(name, seed, tiny)
		if err != nil {
			return nil, err
		}
		m.w, m.r = w, r
		m.setupS = append(m.setupS, time.Since(start).Seconds())
		for k := 0; k < setupYards; k++ {
			m.setupYard = append(m.setupYard, ys.run(r.goProcs()))
		}
	}
	yardProcs := m.r.goProcs()
	if m.w.procsHi == 1 {
		// One core: there is no second arm, and p1() and pP() are the same
		// samples. The metric set stays whole; speedup is labelled.
		fmt.Println("note: nproc = 1, so P = 1: the pP rows repeat p1 and pthread.speedup is unmeasured")
	}
	modes := []bool{false}
	if trace {
		modes = append(modes, true)
	}
	for _, traced := range modes {
		for _, p := range m.w.armProcs() {
			m.arms = append(m.arms, newArm(m.w, p, traced))
		}
	}
	steal0, total0, stealOK := stealTicks()
	budget := time.Duration(seconds * float64(time.Second))
	if trace {
		// The layer probes and the span file follow the passes and count
		// towards --seconds too.
		budget -= traceReserve
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		n := len(m.arms)
		for k := 0; k < n; k++ {
			// Rotate the starting arm each pass.
			m.yard = append(m.yard, ys.run(yardProcs))
			m.pass(m.arms[(k+pass)%n])
		}
		elapsed := time.Since(start)
		perPass := elapsed / time.Duration(pass+1)
		if pass+1 >= minPasses && elapsed+perPass/2 >= budget {
			break
		}
	}
	m.yard = append(m.yard, ys.run(yardProcs))
	m.measured = time.Since(start)
	m.yardSink = ys.sink
	m.stealPct = -1
	if steal1, total1, ok := stealTicks(); ok && stealOK && total1 > total0 {
		m.stealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	runtime.GOMAXPROCS(ambientProcs)
	return m, nil
}

// endToEnd computes the five end-to-end metrics. The three times are
// divided by how slow the host was while they were taken (see
// yardstick.go); rawTimes gives them as measured.
func (m *run) endToEnd() map[string]metric {
	raw := m.rawTimes()
	return map[string]metric{
		"wall_ms":       {raw["wall_ms"] / hostFactor(m.yard), "ms"},
		"wall_p1_ms":    {raw["wall_p1_ms"] / hostFactor(m.yard), "ms"},
		"peak_space_kb": {m.pP().sumOfMedians(peakKB), "KB"},
		"host_alloc_mb": {m.pP().sumOfMedians(allocMB), "MB"},
		"setup_s":       {raw["setup_s"] / hostFactor(m.setupYard), "s"},
	}
}

// rawTimes are the timed end-to-end metrics in this host's own
// milliseconds and seconds.
func (m *run) rawTimes() map[string]float64 {
	return map[string]float64{
		"wall_ms":    m.pP().sumOfMedians(wallMS),
		"wall_p1_ms": m.p1().sumOfMedians(wallMS),
		"setup_s":    median(m.setupS),
	}
}

// hostFactor is how much slower than nominal the host ran the yardstick
// over the given samples: their median over yardstickNominalMS.
func hostFactor(yard []float64) float64 { return median(yard) / yardstickNominalMS }
