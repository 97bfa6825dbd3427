package harness

import (
	"fmt"
	"io"

	"spthreads/internal/matmul"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Active threads under FIFO vs LIFO vs depth-first (Figure 1)",
		What:  "serial execution of a 7-thread binary fork tree",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Thread operation costs (Figure 3)",
		What:  "virtual-time microbenchmarks of the runtime's thread operations",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Matrix multiply under the native FIFO scheduler (Figure 5)",
		What:  "speedup and heap high-water mark vs processors, FIFO, 1 MB stacks",
		Run:   runFig5,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Execution time breakdown under FIFO (Figure 6)",
		What:  "per-category processor time shares for the matrix multiply",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Effect of each scheduler modification (Figure 7)",
		What:  "speedup and memory: FIFO/LIFO/ADF x default/8KB stacks",
		Run:   runFig7,
	})
}

func runFig1(w io.Writer, opt Options) error {
	prog := func(t *pthread.T) {
		leaf := func(tt *pthread.T) { tt.Charge(10) }
		node := func(tt *pthread.T) { tt.Par(leaf, leaf) }
		t.Par(node, node)
	}
	tb := newTable(w)
	tb.row("queue", "max simultaneously active threads (serial execution)")
	for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF} {
		st := run(pthread.Config{Procs: 1, Policy: pol}, prog)
		tb.row(pol, st.PeakLive)
	}
	tb.flush()
	fmt.Fprintln(w, "\npaper: FIFO makes all 7 threads active; a depth-first order needs only 3 (= depth).")
	return nil
}

func runFig3(w io.Writer, opt Options) error {
	const reps = 1000
	cm := vtime.Default()

	// Thread creation + join, cached stacks (threads created serially).
	createJoin := run(pthread.Config{Procs: 1, Policy: pthread.PolicyLIFO, DefaultStack: pthread.SmallStackSize},
		func(t *pthread.T) {
			for i := 0; i < reps; i++ {
				h := t.Create(func(*pthread.T) {})
				t.MustJoin(h)
			}
		})

	// Semaphore synchronization between two threads.
	sema := run(pthread.Config{Procs: 1, Policy: pthread.PolicyLIFO, DefaultStack: pthread.SmallStackSize},
		func(t *pthread.T) {
			s1 := pthread.NewSemaphore(0)
			s2 := pthread.NewSemaphore(0)
			h := t.Create(func(ct *pthread.T) {
				for i := 0; i < reps; i++ {
					s1.Wait(ct)
					s2.Post(ct)
				}
			})
			for i := 0; i < reps; i++ {
				s1.Post(t)
				s2.Wait(t)
			}
			t.MustJoin(h)
		})

	tb := newTable(w)
	tb.row("operation", "model (us)", "paper/calibration (us)")
	perOp := func(st pthread.Stats, n int) float64 {
		return vtime.Duration(int64(st.Time) / int64(n)).Microseconds()
	}
	tb.row("create+join (unbound, cached stack)", fmt.Sprintf("%.1f", perOp(createJoin, reps)),
		fmt.Sprintf("%.1f (20.5 create + join + switches)", (cm.ThreadCreate+cm.ThreadJoin+2*cm.ContextSwitch).Microseconds()))
	tb.row("semaphore sync (round trip / 2)", fmt.Sprintf("%.1f", perOp(sema, 2*reps)),
		fmt.Sprintf("%.1f", cm.SemaSync.Microseconds()))
	tb.row("stack alloc 8KB (fresh)", fmt.Sprintf("%.1f", cm.StackAllocBase.Microseconds()), "200 (Figure 3 caption)")
	tb.row("stack alloc 1MB (fresh)", fmt.Sprintf("%.1f", cm.StackAllocMax.Microseconds()), "260 (Figure 3 caption)")
	tb.flush()
	return nil
}

func runFig5(w io.Writer, opt Options) error {
	cfg := matmulCfg(opt.paper())
	serial := serialTime(matmul.Serial(cfg))
	serialHeap := run(pthread.Config{Procs: 1, Policy: pthread.PolicyLIFO, DefaultStack: pthread.SmallStackSize},
		matmul.Serial(cfg)).HeapHWM
	fmt.Fprintf(w, "matmul %dx%d, FIFO scheduler, 1MB default stacks; serial time %v, serial space %.1f MB\n\n",
		cfg.N, cfg.N, serial, mb(serialHeap))
	tb := newTable(w)
	tb.row("procs", "speedup", "heap HWM (MB)", "total HWM (MB)", "peak live threads")
	for _, p := range opt.procs(defaultProcs) {
		st := run(pthread.Config{Procs: p, Policy: pthread.PolicyFIFO}, matmul.Fine(cfg))
		tb.row(p, fmt.Sprintf("%.2f", speedup(serial, st)),
			fmt.Sprintf("%.1f", mb(st.HeapHWM)), fmt.Sprintf("%.1f", mb(st.TotalHWM)), st.PeakLive)
	}
	tb.flush()
	fmt.Fprintln(w, "\npaper (1024x1024, 8 procs): speedup 3.65, ~115 MB heap, >4500 active threads; serial 25 MB.")
	return nil
}

func runFig6(w io.Writer, opt Options) error {
	cfg := matmulCfg(opt.paper())
	fmt.Fprintf(w, "matmul %dx%d under FIFO, 1MB stacks: processor time breakdown\n\n", cfg.N, cfg.N)
	tb := newTable(w)
	tb.row("procs", "work%", "threadops%", "memory%", "scheduler%", "lockwait%", "idle%")
	for _, p := range opt.procs(defaultProcs) {
		st := run(pthread.Config{Procs: p, Policy: pthread.PolicyFIFO}, matmul.Fine(cfg))
		bd := st.Breakdown()
		tb.row(p,
			fmt.Sprintf("%.1f", bd["work"]*100),
			fmt.Sprintf("%.1f", bd["threadops"]*100),
			fmt.Sprintf("%.1f", bd["memory"]*100),
			fmt.Sprintf("%.1f", bd["scheduler"]*100),
			fmt.Sprintf("%.1f", bd["lockwait"]*100),
			fmt.Sprintf("%.1f", bd["idle"]*100))
	}
	tb.flush()
	fmt.Fprintln(w, "\npaper: a significant share of processor time goes to the kernel (memory-allocation system calls).")
	return nil
}

func runFig7(w io.Writer, opt Options) error {
	cfg := matmulCfg(opt.paper())
	serial := serialTime(matmul.Serial(cfg))
	fmt.Fprintf(w, "matmul %dx%d; serial time %v\n\n", cfg.N, cfg.N, serial)

	variants := []struct {
		name  string
		pol   pthread.Policy
		stack int64
	}{
		{"Original (FIFO, 1MB stk)", pthread.PolicyFIFO, pthread.DefaultStackSize},
		{"LIFO (1MB stk)", pthread.PolicyLIFO, pthread.DefaultStackSize},
		{"New scheduler (1MB stk)", pthread.PolicyADF, pthread.DefaultStackSize},
		{"LIFO + small stk", pthread.PolicyLIFO, pthread.SmallStackSize},
		{"New + small stk", pthread.PolicyADF, pthread.SmallStackSize},
	}
	procs := opt.procs(defaultProcs)

	fmt.Fprintln(w, "(a) speedup over serial")
	tb := newTable(w)
	header := []any{"variant"}
	for _, p := range procs {
		header = append(header, fmt.Sprintf("p=%d", p))
	}
	tb.row(header...)
	results := make(map[string]map[int]pthread.Stats)
	for _, v := range variants {
		results[v.name] = make(map[int]pthread.Stats)
		cells := []any{v.name}
		for _, p := range procs {
			st := run(pthread.Config{Procs: p, Policy: v.pol, DefaultStack: v.stack}, matmul.Fine(cfg))
			results[v.name][p] = st
			cells = append(cells, fmt.Sprintf("%.2f", speedup(serial, st)))
		}
		tb.row(cells...)
	}
	tb.flush()

	fmt.Fprintln(w, "\n(b) memory high-water mark, MB (heap + stacks)")
	tb = newTable(w)
	tb.row(header...)
	for _, v := range variants {
		cells := []any{v.name}
		for _, p := range procs {
			cells = append(cells, fmt.Sprintf("%.1f", mb(results[v.name][p].TotalHWM)))
		}
		tb.row(cells...)
	}
	tb.flush()
	fmt.Fprintln(w, "\npaper (8 procs): Original ~3.65x; New+small stk 6.56x with flat, near-serial memory.")
	return nil
}
