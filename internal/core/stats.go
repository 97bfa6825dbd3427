package core

import (
	"fmt"
	"strings"

	"spthreads/internal/memsim"
	"spthreads/internal/metrics"
	"spthreads/internal/vtime"
)

// Stats summarizes one simulated run.
type Stats struct {
	// Policy and NumProcs echo the configuration.
	Policy   string
	NumProcs int

	// Time is the makespan: the largest virtual processor clock.
	Time vtime.Duration
	// Work is the total computation committed across processors
	// (user work + thread operations + memory-system time). Work and
	// Span are machine counters, not the bound's W and D: those are
	// defined once, on the event trace, by internal/analyze.
	Work vtime.Duration
	// Span is the longest chain of charges the machine propagated
	// through forks and joins. Analyze's D counts each thread's whole
	// time on a processor, scheduler operations included, so the two
	// differ (ADF matmul 256 at p=8: 7.200 ms against 7.508 ms).
	Span vtime.Duration

	// ThreadsCreated counts every thread, including dummies; PeakLive is
	// the maximum number of simultaneously live (created, not yet
	// exited) threads — the paper's "max active threads" column. On the
	// native backend above one processor, PeakLive is the sum of each
	// worker's own mark of threads admitted minus exited there: an upper
	// bound, exact at one processor.
	ThreadsCreated int64
	DummyThreads   int64
	PeakLive       int

	// Memory high-water marks in bytes. TotalHWM is exact on both
	// backends: natively, the highest value the one shared footprint word
	// held. On the native backend above one processor, HeapHWM and
	// StackHWM are the sums of each worker's own marks of the bytes it
	// allocated minus freed, capped by TotalHWM: upper bounds, exact at
	// one processor.
	HeapHWM  int64
	StackHWM int64
	TotalHWM int64

	// Mem exposes the memory-system event counters.
	Mem memsim.Stats

	// Procs is the per-processor time breakdown (Figure 6).
	Procs []ProcStats

	// Metrics is the final snapshot of the attached metrics registry
	// (nil when the run had no Config.Metrics).
	Metrics *metrics.Snapshot
}

func (m *Machine) stats() Stats {
	makespan := m.makespan()
	s := Stats{
		Policy:         m.policy.Name(),
		NumProcs:       len(m.procs),
		Time:           vtime.Duration(makespan),
		Span:           m.maxSpan,
		ThreadsCreated: m.created,
		DummyThreads:   m.dummies,
		PeakLive:       m.peakLive,
		HeapHWM:        m.mem.HeapHWM(),
		StackHWM:       m.mem.StackHWM(),
		TotalHWM:       m.mem.TotalHWM(),
		Mem:            m.mem.Stats(),
		Procs:          make([]ProcStats, len(m.procs)),
		Metrics:        m.cfg.Metrics.Snapshot(),
	}
	for i, p := range m.procs {
		ps := p.stats
		busy := ps.Work + ps.ThreadOps + ps.Mem + ps.Sched + ps.LockWait
		ps.Idle = vtime.Duration(makespan) - busy
		if ps.Idle < 0 {
			ps.Idle = 0
		}
		s.Procs[i] = ps
		s.Work += ps.Work + ps.ThreadOps + ps.Mem
	}
	return s
}

// Parallelism returns W/D, the average parallelism of the computation.
func (s Stats) Parallelism() float64 {
	if s.Span == 0 {
		return 0
	}
	return float64(s.Work) / float64(s.Span)
}

// Breakdown aggregates the per-processor buckets into fractions of total
// processor-time (Figure 6's categories).
func (s Stats) Breakdown() map[string]float64 {
	var work, ops, mem, sched, lock, idle float64
	for _, p := range s.Procs {
		work += float64(p.Work)
		ops += float64(p.ThreadOps)
		mem += float64(p.Mem)
		sched += float64(p.Sched)
		lock += float64(p.LockWait)
		idle += float64(p.Idle)
	}
	total := work + ops + mem + sched + lock + idle
	if total == 0 {
		total = 1
	}
	return map[string]float64{
		"work":      work / total,
		"threadops": ops / total,
		"memory":    mem / total,
		"scheduler": sched / total,
		"lockwait":  lock / total,
		"idle":      idle / total,
	}
}

// String renders a compact single-run report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s procs=%d time=%s work=%s span=%s parallelism=%.1f\n",
		s.Policy, s.NumProcs, s.Time, s.Work, s.Span, s.Parallelism())
	fmt.Fprintf(&b, "threads=%d (dummies=%d) peak-live=%d\n",
		s.ThreadsCreated, s.DummyThreads, s.PeakLive)
	fmt.Fprintf(&b, "heap-hwm=%s stack-hwm=%s total-hwm=%s\n",
		FormatBytes(s.HeapHWM), FormatBytes(s.StackHWM), FormatBytes(s.TotalHWM))
	bd := s.Breakdown()
	fmt.Fprintf(&b, "breakdown: work=%.1f%% ops=%.1f%% mem=%.1f%% sched=%.1f%% lock=%.1f%% idle=%.1f%%",
		bd["work"]*100, bd["threadops"]*100, bd["memory"]*100,
		bd["scheduler"]*100, bd["lockwait"]*100, bd["idle"]*100)
	return b.String()
}

// FormatBytes renders a byte count with an adaptive unit.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
