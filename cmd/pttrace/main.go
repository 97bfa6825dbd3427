// Command pttrace runs a small fork/join program under a chosen
// scheduler with event tracing enabled and renders a per-processor
// Gantt chart — a direct way to *see* the difference between the
// breadth-first FIFO queue and the depth-first space-efficient
// scheduler. Every other view is replayed from the same trace: the
// space-over-time curves, Chrome trace-event JSON (load in
// https://ui.perfetto.dev or chrome://tracing), a JSONL event stream,
// the space profile as CSV, and the fork-join DAG as Graphviz DOT. With
// -analyze it reconstructs the run DAG and reports W, D, W/D, S₁, the
// fitted space-bound constant c, and the attributed critical path;
// -report writes the same analysis as JSON (analyze.Report's JSON tags
// are the report's contract). With -in it skips the run and works from
// a previously recorded JSONL trace: the processor count is the
// trace's own, and -procs and -policy apply only when given.
//
//	pttrace [-policy fifo|lifo|adf|adf-shard|ws|dfd] [-backend sim|native]
//	        [-procs 4] [-depth 5] [-width 100]
//	        [-out trace.json] [-events events.jsonl] [-space space.csv]
//	        [-dot dag.dot] [-report report.json] [-analyze] [-in events.jsonl]
//
// With -backend native the same program runs on real goroutines: the
// trace records wall-clock nanoseconds (the JSONL header and every
// export carry the unit). ws and dfd are sim-only.
//
// Exit status: 0 on success, 2 for usage errors — including an empty
// or truncated -in trace file — and 1 for runtime/I/O failures,
// including a -space replay of a trace that dropped events.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"spthreads/internal/analyze"
	"spthreads/internal/spaceprof"
	"spthreads/internal/trace"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pttrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policy := fs.String("policy", "adf", "scheduler: "+policyNames())
	backend := fs.String("backend", "sim", "execution backend: sim (deterministic virtual time) or native (goroutines, wall clock)")
	procs := fs.Int("procs", 4, "virtual processors")
	depth := fs.Int("depth", 5, "fork-tree depth (2^depth leaves)")
	var v views
	fs.IntVar(&v.width, "width", 100, "gantt chart width in buckets")
	fs.StringVar(&v.out, "out", "", "write the run as Chrome trace-event JSON (Perfetto/chrome://tracing) to this file")
	fs.StringVar(&v.events, "events", "", "write the raw event stream as JSONL to this file")
	fs.StringVar(&v.space, "space", "", "write the space-over-time profile as CSV to this file")
	fs.StringVar(&v.dot, "dot", "", "write the computation DAG as Graphviz DOT to this file")
	fs.StringVar(&v.report, "report", "", "write the run DAG analysis as JSON to this file")
	fs.BoolVar(&v.analyze, "analyze", false, "reconstruct the run DAG and report W, D, W/D, S1, and the critical path")
	inPath := fs.String("in", "", "analyze/render a recorded JSONL trace instead of running a program (-procs and -policy apply only when given)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pttrace [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *inPath != "" {
		// The trace names neither its policy nor, beyond its events, its
		// processor count, so only an explicit flag overrides either.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "policy":
				v.opt.Policy = *policy
			case "procs":
				v.opt.Procs = *procs
			}
		})
		return runOffline(*inPath, v, stdout, stderr, fs.Usage)
	}

	if !validPolicy(*policy) {
		fmt.Fprintf(stderr, "pttrace: unknown policy %q (valid: %s)\n\n", *policy, policyNames())
		fs.Usage()
		return 2
	}
	if !validBackend(*backend) {
		fmt.Fprintf(stderr, "pttrace: unknown backend %q (valid: sim, native)\n\n", *backend)
		fs.Usage()
		return 2
	}
	native := pthread.Backend(*backend) == pthread.BackendNative

	rec := pthread.NewTraceRecorder(1 << 20)
	reg := pthread.NewMetrics()
	cfg := pthread.Config{
		Procs:        *procs,
		Policy:       pthread.Policy(*policy),
		Backend:      pthread.Backend(*backend),
		DefaultStack: pthread.SmallStackSize,
		Tracer:       rec,
		Metrics:      reg,
	}

	var tree func(t *pthread.T, d int)
	tree = func(t *pthread.T, d int) {
		t.Charge(5000)
		if d == 0 {
			a := t.Malloc(32 << 10)
			t.TouchAll(a)
			t.Charge(40000)
			t.Free(a)
			return
		}
		t.Par(
			func(ct *pthread.T) { tree(ct, d-1) },
			func(ct *pthread.T) { tree(ct, d-1) },
		)
	}
	stats, err := pthread.Run(cfg, func(t *pthread.T) { tree(t, *depth) })
	if err != nil {
		fmt.Fprintf(stderr, "pttrace: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "policy=%s backend=%s procs=%d: %d threads, peak live %d, time %v, heap HWM %d B\n",
		*policy, *backend, *procs, stats.ThreadsCreated, stats.PeakLive, stats.Time, stats.HeapHWM)

	if m := stats.Metrics; m != nil {
		fmt.Fprintf(stdout, "\nmetrics: dispatches=%d quota-preempts=%d dummy-forks=%d",
			m.Counters["sched.dispatches"], m.Counters["sched.quota.preempts"],
			m.Counters["sched.dummy.forks"])
		if h, ok := m.Histograms["sched.dispatch.wait"]; ok {
			// Sim histograms observe virtual cycles, native ones wall ns.
			suffix := "cy"
			if native {
				suffix = "ns"
			}
			fmt.Fprintf(stdout, " dispatch-wait-p50=%d%s p99=%d%s", h.P50, suffix, h.P99, suffix)
		}
		if gv, ok := m.Gauges["adf.placeholders"]; ok {
			fmt.Fprintf(stdout, " max-placeholders=%d", gv.Max)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintln(stdout, "\nbusiest threads (by dispatch count):")
	sum := rec.Summary()
	shown := 0
	for i := len(sum) - 1; i >= 0 && shown < 5; i-- {
		s := sum[i]
		if s.Dispatches < 2 {
			continue
		}
		fmt.Fprintf(stdout, "  thread %-4d dispatched %d times, lifetime %s\n",
			s.Thread, s.Dispatches, rec.Unit().FormatDuration(int64(s.Lifetime)))
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(stdout, "  (every thread ran in a single dispatch)")
	}
	fmt.Fprintln(stdout)

	var quota int64
	switch pthread.Policy(*policy) {
	case pthread.PolicyADF, pthread.PolicyADFShard:
		quota = pthread.DefaultMemQuota
	}
	v.opt = analyze.Options{
		Policy:       *policy,
		Procs:        *procs,
		Quota:        quota,
		DefaultStack: pthread.SmallStackSize,
		PeakHeap:     stats.HeapHWM,
		PeakStack:    stats.StackHWM,
		Peak:         stats.TotalHWM,
	}
	return v.render(rec, stdout, stderr)
}

// runOffline serves -in: load a recorded trace and render/export/
// analyze it. An empty or truncated trace is a usage error (exit 2) —
// every downstream view would be silently wrong.
func runOffline(inPath string, v views, stdout, stderr io.Writer, usage func()) int {
	f, err := os.Open(inPath)
	if err != nil {
		fmt.Fprintf(stderr, "pttrace: %v\n", err)
		return 1
	}
	rec, rerr := trace.ReadJSONL(f)
	f.Close()
	if rerr != nil {
		fmt.Fprintf(stderr, "pttrace: %s: %v\n", inPath, rerr)
		usage()
		return 2
	}
	if len(rec.Events()) == 0 {
		fmt.Fprintf(stderr, "pttrace: %s: empty trace (no events)\n", inPath)
		usage()
		return 2
	}
	if v.opt.Procs <= 0 {
		v.opt.Procs = traceProcs(rec)
	}
	fmt.Fprintf(stdout, "trace %s: %d events, %d processors\n\n", inPath, len(rec.Events()), v.opt.Procs)
	return v.render(rec, stdout, stderr)
}

// traceProcs is the processor count a trace shows: its largest
// processor id plus one, and at least 1.
func traceProcs(rec *trace.Recorder) int {
	n := 1
	for _, e := range rec.Events() {
		n = max(n, e.Proc+1)
	}
	return n
}

// views are the renderings and exports of one recorded trace. A live
// run and a -in trace go through the same render, so every view of a
// run is a replay of its one record.
type views struct {
	width                           int
	out, events, space, dot, report string
	analyze                         bool
	opt                             analyze.Options
}

func (v views) render(rec *trace.Recorder, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pttrace: %v\n", err)
		return 1
	}
	// The Gantt and Chrome views draw every processor the trace shows,
	// even under a smaller -procs override.
	rows := max(v.opt.Procs, traceProcs(rec))
	fmt.Fprint(stdout, rec.Gantt(rows, v.width))

	prof, ferr := analyze.Footprint(rec, 0)
	fmt.Fprintln(stdout, "\nspace over virtual time:")
	if ferr != nil {
		if v.space != "" {
			return fail(ferr)
		}
		fmt.Fprintf(stdout, "(%v)\n", ferr)
	} else {
		fmt.Fprint(stdout, prof.Curves(v.width))
	}

	var rep *analyze.Report
	if v.analyze || v.report != "" {
		var err error
		if rep, err = analyze.Analyze(rec, v.opt); err != nil {
			return fail(err)
		}
	}
	if v.analyze {
		fmt.Fprintln(stdout, "\nrun DAG analysis:")
		rep.WriteText(stdout)
	}

	fmt.Fprintln(stdout)
	for _, f := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{v.out, "Chrome trace (load in https://ui.perfetto.dev)", func(w io.Writer) error {
			return rec.WriteChrome(w, rows, spaceCounters(prof, rec.Unit()))
		}},
		{v.events, fmt.Sprintf("%d events as JSONL", len(rec.Events())), rec.WriteJSONL},
		{v.space, "space profile CSV", prof.WriteCSV},
		{v.dot, "computation DAG as DOT", func(w io.Writer) error { return analyze.WriteDOT(w, rec) }},
		{v.report, "run DAG analysis as JSON", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}},
	} {
		if f.path == "" {
			continue
		}
		if err := writeFile(f.path, f.write); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s -> %s\n", f.what, f.path)
	}
	return 0
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spaceCounters converts the space profile into Chrome counter tracks
// (downsampled so huge runs stay loadable). The profile is stamped in
// virtual cycles, so for a wall-ns trace the stamps convert back to
// nanoseconds to share the events' time base.
func spaceCounters(prof *spaceprof.Profiler, unit trace.TimeUnit) []trace.CounterSample {
	samples := prof.Downsample(2048)
	at := func(t vtime.Time) vtime.Time {
		if unit == trace.UnitWallNS {
			return vtime.Time(int64(t) * 1000 / vtime.CyclesPerMicrosecond)
		}
		return t
	}
	out := make([]trace.CounterSample, 0, 2*len(samples))
	for _, s := range samples {
		out = append(out,
			trace.CounterSample{At: at(s.At), Name: "space (bytes)", Series: map[string]int64{
				"heap": s.Heap, "stack": s.Stack,
			}},
			trace.CounterSample{At: at(s.At), Name: "live threads", Series: map[string]int64{
				"live": int64(s.Live),
			}})
	}
	return out
}

func validBackend(name string) bool {
	for _, b := range pthread.Backends() {
		if string(b) == name {
			return true
		}
	}
	return false
}

func validPolicy(name string) bool {
	for _, p := range pthread.Policies() {
		if string(p) == name {
			return true
		}
	}
	return false
}

func policyNames() string {
	var s string
	for i, p := range pthread.Policies() {
		if i > 0 {
			s += ", "
		}
		s += string(p)
	}
	return s
}
