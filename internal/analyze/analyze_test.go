package analyze

import (
	"bytes"
	"strings"
	"testing"

	"spthreads/internal/trace"
	"spthreads/internal/vtime"
)

const testStack = 8 << 10

// buildBalancedTree records the serial one-processor trace of a
// balanced binary fork tree with the paper's fork semantics (the child
// runs immediately; the parent re-runs after it): `levels` levels,
// every node computing c cycles before forking. The resulting DAG has
// W = (2^levels - 1)·c and D = levels·c exactly.
func buildBalancedTree(levels int, c int64) *trace.Recorder {
	rec := trace.NewRecorder(0)
	clock := vtime.Time(0)
	next := int64(1)
	rec.RecordArg(0, -1, 1, trace.KindCreate, 0)
	rec.RecordArg(0, -1, 1, trace.KindStackAlloc, testStack)
	var run func(id int64, level int)
	run = func(id int64, level int) {
		rec.Record(clock, 0, id, trace.KindDispatch)
		clock += vtime.Time(c)
		if level+1 < levels {
			var kids [2]int64
			for i := range kids {
				next++
				kids[i] = next
				rec.RecordArg(clock, 0, kids[i], trace.KindCreate, id)
				rec.RecordArg(clock, 0, kids[i], trace.KindStackAlloc, testStack)
				rec.Record(clock, 0, id, trace.KindPreempt)
				run(kids[i], level+1)
				rec.Record(clock, 0, id, trace.KindDispatch)
			}
			rec.RecordArg(clock, 0, id, trace.KindJoin, kids[0])
			rec.RecordArg(clock, 0, id, trace.KindJoin, kids[1])
		}
		rec.Record(clock, 0, id, trace.KindExit)
	}
	run(1, 0)
	return rec
}

// TestGoldenBalancedTree is the analyzer's golden case: on a balanced
// binary fork tree of 2^k-1 nodes each computing c cycles, W, D, and
// W/D have closed forms, and the serial depth-first footprint is one
// default stack per tree level (exited stacks recycle through the
// cache).
func TestGoldenBalancedTree(t *testing.T) {
	const (
		levels = 4
		c      = 1000
		nodes  = 1<<levels - 1 // 15
	)
	rep, err := Analyze(buildBalancedTree(levels, c), Options{Policy: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Work, vtime.Duration(nodes*c); got != want {
		t.Errorf("W = %d cycles, want %d", got, want)
	}
	if got, want := rep.Depth, vtime.Duration(levels*c); got != want {
		t.Errorf("D = %d cycles, want %d", got, want)
	}
	if got, want := rep.Parallelism, float64(nodes)/levels; got != want {
		t.Errorf("W/D = %v, want %v", got, want)
	}
	if rep.Threads != nodes {
		t.Errorf("threads = %d, want %d", rep.Threads, nodes)
	}
	if rep.Makespan != vtime.Duration(nodes*c) {
		t.Errorf("makespan = %d (serial run: must equal W = %d)", rep.Makespan, nodes*c)
	}
	// Serial depth-first space: the live stacks are exactly the path
	// from the root to the current leaf.
	if got, want := rep.SerialSpace, int64(levels*testStack); got != want {
		t.Errorf("S1 = %d, want %d", got, want)
	}
	// The trace IS a serial depth-first run, so the measured peak
	// matches S1 and the bound holds with zero slack.
	if rep.Peak != rep.SerialSpace {
		t.Errorf("peak = %d, want %d (serial run)", rep.Peak, rep.SerialSpace)
	}
	if rep.Slack != 0 || rep.C != 0 {
		t.Errorf("slack = %d, c = %v, want 0, 0", rep.Slack, rep.C)
	}
	if !rep.BoundOK {
		t.Error("bound must hold on a serial run")
	}
	// Path: the root computes c, and spends the rest of the wall clock
	// ready while its descendants hold the (single) processor.
	pb := rep.Path
	if pb.Compute != c {
		t.Errorf("path compute = %d, want %d", pb.Compute, c)
	}
	if pb.Ready != vtime.Duration((nodes-1)*c) {
		t.Errorf("path ready = %d, want %d", pb.Ready, (nodes-1)*c)
	}
	if sum := pb.Compute + pb.Ready + pb.Lock + pb.Quota + pb.Dummy + pb.Blocked + pb.Unattributed; sum != rep.Makespan {
		t.Errorf("path categories sum to %d, makespan is %d", sum, rep.Makespan)
	}
}

// TestSingleThread: a trace with one thread and no forks reduces to
// W = D = makespan, parallelism 1, and a footprint of one stack plus
// the live heap.
func TestSingleThread(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.RecordArg(0, -1, 1, trace.KindCreate, 0)
	rec.RecordArg(0, -1, 1, trace.KindStackAlloc, testStack)
	rec.Record(0, 0, 1, trace.KindDispatch)
	rec.RecordArg(100, 0, 1, trace.KindAlloc, 4096)
	rec.RecordArg(600, 0, 1, trace.KindFree, 4096)
	rec.Record(1000, 0, 1, trace.KindExit)

	rep, err := Analyze(rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work != 1000 || rep.Depth != 1000 {
		t.Errorf("W = %d, D = %d, want 1000, 1000", rep.Work, rep.Depth)
	}
	if rep.Parallelism != 1.0 {
		t.Errorf("W/D = %v, want 1", rep.Parallelism)
	}
	if want := int64(testStack + 4096); rep.SerialSpace != want || rep.Peak != want {
		t.Errorf("S1 = %d, peak = %d, want %d", rep.SerialSpace, rep.Peak, want)
	}
	if !rep.BoundOK || rep.Slack != 0 {
		t.Errorf("bound violated on a single-thread run: slack=%d", rep.Slack)
	}
	if rep.Path.Compute != 1000 {
		t.Errorf("path compute = %d, want 1000", rep.Path.Compute)
	}
	if rep.Procs != 1 {
		t.Errorf("procs = %d, want 1", rep.Procs)
	}
}

// TestForkOnlyNoJoins: depth still accounts for detached children
// (fork edges position them; no join pulls them back into the parent).
func TestForkOnlyNoJoins(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.RecordArg(0, -1, 1, trace.KindCreate, 0)
	rec.RecordArg(0, -1, 1, trace.KindStackAlloc, testStack)
	rec.Record(0, 0, 1, trace.KindDispatch)
	rec.RecordArg(100, 0, 2, trace.KindCreate, 1)
	rec.RecordArg(100, 0, 2, trace.KindStackAlloc, testStack)
	rec.Record(100, 0, 1, trace.KindPreempt) // fork semantics: child runs now
	rec.Record(100, 0, 2, trace.KindDispatch)
	rec.Record(400, 0, 2, trace.KindExit)
	rec.Record(400, 0, 1, trace.KindDispatch)
	rec.Record(500, 0, 1, trace.KindExit)

	rep, err := Analyze(rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work != 500 {
		t.Errorf("W = %d, want 500", rep.Work)
	}
	// The detached child's chain: 100 cycles of parent prefix plus its
	// own 300, longer than the parent's 200 total.
	if rep.Depth != 400 {
		t.Errorf("D = %d, want 400", rep.Depth)
	}
}

// TestQuotaAndDummyAttribution: redispatch delays after a
// quota-exhausting allocation and after dummy-thread throttling land
// in their own path categories.
func TestQuotaAndDummyAttribution(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.RecordArg(0, -1, 1, trace.KindCreate, 0)
	rec.RecordArg(0, -1, 1, trace.KindStackAlloc, testStack)
	rec.Record(0, 0, 1, trace.KindDispatch)
	// A large allocation first forks a dummy throttling thread...
	rec.RecordArg(150, 0, 1, trace.KindDummyFork, 1)
	rec.RecordArg(150, 0, 2, trace.KindCreate, 1)
	rec.RecordArg(150, 0, 2, trace.KindStackAlloc, testStack)
	rec.Record(150, 0, 1, trace.KindPreempt)
	rec.Record(150, 0, 2, trace.KindDispatch)
	rec.Record(150, 0, 2, trace.KindExit)
	rec.Record(600, 0, 1, trace.KindDispatch) // 450 cycles throttled
	// ...then the allocation itself exhausts the quota.
	rec.RecordArg(700, 0, 1, trace.KindAlloc, 100000)
	rec.RecordArg(700, 0, 1, trace.KindQuotaExhausted, 100000)
	rec.Record(700, 0, 1, trace.KindPreempt)
	rec.Record(1200, 0, 1, trace.KindDispatch) // 500 cycles quota-parked
	rec.Record(1500, 0, 1, trace.KindExit)

	rep, err := Analyze(rec, Options{Quota: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuotaPreempts != 1 || rep.DummyForks != 1 {
		t.Errorf("quota preempts = %d, dummy forks = %d, want 1, 1",
			rep.QuotaPreempts, rep.DummyForks)
	}
	if rep.Path.Dummy != 450 {
		t.Errorf("path dummy = %d, want 450", rep.Path.Dummy)
	}
	if rep.Path.Quota != 500 {
		t.Errorf("path quota = %d, want 500", rep.Path.Quota)
	}
	if rep.Path.Compute != 550 { // 150 + 100 + 300
		t.Errorf("path compute = %d, want 550", rep.Path.Compute)
	}
}

// TestBlockingJoinDescent: when the joiner blocked, the critical path
// descends into the joined child, and the wake-to-redispatch wait is
// ready time.
func TestBlockingJoinDescent(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.RecordArg(0, -1, 1, trace.KindCreate, 0)
	rec.RecordArg(0, -1, 1, trace.KindStackAlloc, testStack)
	rec.Record(0, 0, 1, trace.KindDispatch)
	rec.RecordArg(100, 0, 2, trace.KindCreate, 1) // non-preempting fork
	rec.RecordArg(100, 0, 2, trace.KindStackAlloc, testStack)
	rec.Record(150, 1, 2, trace.KindDispatch)
	rec.Record(200, 0, 1, trace.KindBlock) // join 2, not yet done
	rec.Record(600, 1, 2, trace.KindExit)
	rec.Record(600, 1, 1, trace.KindWake)
	rec.Record(650, 0, 1, trace.KindDispatch)
	rec.RecordArg(660, 0, 1, trace.KindJoin, 2)
	rec.Record(700, 0, 1, trace.KindExit)

	rep, err := Analyze(rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pb := rep.Path
	if pb.Compute != 600 { // 50 joiner tail + 450 child + 100 parent prefix
		t.Errorf("path compute = %d, want 600", pb.Compute)
	}
	if pb.Ready != 100 { // 50 wake-to-redispatch + 50 child create-to-dispatch
		t.Errorf("path ready = %d, want 100", pb.Ready)
	}
	if pb.Blocked != 0 {
		t.Errorf("path blocked = %d, want 0 (block was a join wait, path descends)", pb.Blocked)
	}
	if pb.Hops != 3 { // joiner tail, child, parent prefix
		t.Errorf("path hops = %d, want 3", pb.Hops)
	}
	if rep.Procs != 2 {
		t.Errorf("procs = %d, want 2", rep.Procs)
	}
	// D: parent prefix 100 + child 450 + joiner tail 40 (the 10-cycle
	// join charge between redispatch and join completion is modeled as
	// overlappable with the child, so it stretches W but not D).
	if rep.Depth != 590 {
		t.Errorf("D = %d, want 590", rep.Depth)
	}
	if rep.Work != 700 { // 200 + 50 joiner + 450 child
		t.Errorf("W = %d, want 700", rep.Work)
	}
}

// TestLockContentionAttribution: a block whose redispatch leads with a
// contended lock-acquire is lock time on the path.
func TestLockContentionAttribution(t *testing.T) {
	rec := trace.NewRecorder(0)
	rec.RecordArg(0, -1, 1, trace.KindCreate, 0)
	rec.RecordArg(0, -1, 1, trace.KindStackAlloc, testStack)
	rec.Record(0, 0, 1, trace.KindDispatch)
	rec.Record(200, 0, 1, trace.KindBlock) // lock held elsewhere
	rec.Record(500, 0, 1, trace.KindDispatch)
	rec.RecordArg(510, 0, 1, trace.KindLockAcquire, 300)
	rec.Record(800, 0, 1, trace.KindExit)

	rep, err := Analyze(rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path.Lock != 300 {
		t.Errorf("path lock = %d, want 300", rep.Path.Lock)
	}
	if rep.Path.Blocked != 0 {
		t.Errorf("path blocked = %d, want 0", rep.Path.Blocked)
	}
}

// TestEmptyTraceErrors: an empty trace is an error, not a zero report.
func TestEmptyTraceErrors(t *testing.T) {
	if _, err := Analyze(trace.NewRecorder(0), Options{}); err == nil {
		t.Fatal("Analyze accepted an empty trace")
	}
}

// TestExternalPeakOverride: externally measured peaks (from the live
// run's memsim stats) take precedence over trace reconstruction.
func TestExternalPeakOverride(t *testing.T) {
	rep, err := Analyze(buildBalancedTree(3, 500), Options{
		Procs: 4, PeakHeap: 1000, PeakStack: 5 * testStack, Peak: 1000 + 5*testStack,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peak != 1000+5*testStack {
		t.Errorf("peak = %d, want override", rep.Peak)
	}
	if rep.Procs != 4 {
		t.Errorf("procs = %d, want 4 (override)", rep.Procs)
	}
	if rep.Slack != rep.Peak-rep.SerialSpace {
		t.Errorf("slack = %d", rep.Slack)
	}
	if rep.C <= 0 {
		t.Error("fitted c must be positive when peak exceeds S1")
	}
	if !rep.BoundOK {
		t.Error("per-run fit must satisfy its own bound")
	}
	// A larger external fit keeps the bound satisfied; a smaller one
	// flags the violation.
	rep.ApplyFit(rep.C * 2)
	if !rep.BoundOK {
		t.Error("doubling c must keep the bound satisfied")
	}
	rep.ApplyFit(rep.C / 8)
	if rep.BoundOK {
		t.Error("shrinking c below the fit must violate the bound")
	}
}

// TestWriteTextRenders: the text report mentions the headline model
// quantities.
func TestWriteTextRenders(t *testing.T) {
	rep, err := Analyze(buildBalancedTree(3, 500), Options{Policy: "ADF", Quota: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"work W", "depth D", "parallelism W/D", "serial S1", "bound:", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestWallUnitReport(t *testing.T) {
	// The same event stream tagged wall-ns must carry its unit into the
	// report, the fitted constant (c normalizes by real microseconds, so
	// ns divide by 1000, not 167), and the rendered text.
	rec := buildBalancedTree(3, 500)
	wall := trace.NewRecorder(0)
	wall.SetUnit(trace.UnitWallNS)
	for _, e := range rec.Events() {
		wall.RecordArg(e.At, e.Proc, e.Thread, e.Kind, e.Arg)
	}
	rep, err := Analyze(wall, Options{Policy: "adf"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TimeUnit != trace.UnitWallNS {
		t.Errorf("TimeUnit = %v, want wall-ns", rep.TimeUnit)
	}
	cyc, err := Analyze(rec, Options{Policy: "adf"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Work != cyc.Work || rep.Depth != cyc.Depth {
		t.Errorf("tick quantities diverged: wall W=%v D=%v, cycles W=%v D=%v",
			rep.Work, rep.Depth, cyc.Work, cyc.Depth)
	}
	// depth 1500 ticks: 1.5us of wall vs 8.98us of virtual time.
	if got, want := rep.depthUS(), 1.5; got != want {
		t.Errorf("wall depthUS = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if out := buf.String(); !strings.Contains(out, "depth D 1.5us") {
		t.Errorf("wall report renders ns unscaled:\n%s", out)
	}
}

// TestWriteDOT: the DOT rendering draws one node per thread, a solid
// edge per fork and a dashed edge from each joined child to its joiner.
func TestWriteDOT(t *testing.T) {
	var b bytes.Buffer
	if err := WriteDOT(&b, buildBalancedTree(2, 1000)); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, frag := range []string{
		"digraph computation {",
		`t1 [label="t1\n6.0us"];`,
		"t1 -> t2;", "t1 -> t3;",
		"t2 -> t1 [style=dashed];", "t3 -> t1 [style=dashed];",
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, dot)
		}
	}
	if err := WriteDOT(&b, trace.NewRecorder(0)); err == nil {
		t.Error("WriteDOT accepted an empty trace")
	}
}
