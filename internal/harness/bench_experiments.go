package harness

import (
	"fmt"
	"io"

	"spthreads/internal/barneshut"
	"spthreads/internal/dtree"
	"spthreads/internal/fft"
	"spthreads/internal/fmm"
	"spthreads/internal/matmul"
	"spthreads/internal/spmv"
	"spthreads/internal/volrend"
	"spthreads/pthread"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "All benchmarks: coarse vs fine+FIFO vs fine+ADF (Figure 8)",
		What:  "8-processor speedups over serial and max active threads",
		Run: func(w io.Writer, opt Options) error {
			return runFig8(w, opt, 8)
		},
	})
	register(Experiment{
		ID:    "scale",
		Title: "Scalability to 16 processors (Section 5.2)",
		What:  "the Figure 8 table at p=16",
		Run: func(w io.Writer, opt Options) error {
			return runFig8(w, opt, 16)
		},
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Memory allocation of FMM and the decision tree builder (Figure 9)",
		What:  "high-water mark vs processors, original vs space-efficient scheduler",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "FFT with p threads vs 256 threads (Figure 10)",
		What:  "running time vs processors for the three configurations",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Volume rendering speedup vs thread granularity (Figure 11)",
		What:  "8-processor speedup vs tiles per thread, FIFO vs ADF",
		Run:   runFig11,
	})
}

// benchRow describes one Figure 8 row.
type benchRow struct {
	name    string
	problem string
	serial  func(*pthread.T)
	fine    func(*pthread.T)
	coarse  func(p int) func(*pthread.T) // nil when the paper has no coarse version
}

func fig8Rows(paper bool) []benchRow {
	mm := matmulCfg(paper)
	bh := barneshutCfg(paper)
	fm := fmmCfg(paper)
	dt := dtreeCfg(paper)
	ff := fftCfg(paper)
	sp := spmvCfg(paper)
	vr := volrendCfg(paper)
	return []benchRow{
		{
			name:    "Matrix Mult.",
			problem: fmt.Sprintf("%dx%d", mm.N, mm.N),
			serial:  matmul.Serial(mm),
			fine:    matmul.Fine(mm),
		},
		{
			name:    "Barnes Hut",
			problem: fmt.Sprintf("N=%d, Plummer", bh.N),
			serial:  barneshut.Serial(bh),
			fine:    barneshut.Fine(bh),
			coarse: func(p int) func(*pthread.T) {
				c := bh
				c.Procs = p
				return barneshut.Coarse(c)
			},
		},
		{
			name:    "FMM",
			problem: fmt.Sprintf("N=%d, %d terms", fm.N, fmm.DefaultTerms),
			serial:  fmm.Serial(fm),
			fine:    fmm.Fine(fm),
		},
		{
			name:    "Decision Tree",
			problem: fmt.Sprintf("%d instances", dt.Gen.Instances),
			serial:  dtree.Serial(dt),
			fine:    dtree.Fine(dt),
		},
		{
			name:    "FFTW",
			problem: fmt.Sprintf("N=2^%d", ff.LogN),
			serial:  fft.Program(ff),
			fine: func(t *pthread.T) {
				c := ff
				c.Threads = 256
				fft.Program(c)(t)
			},
			coarse: func(p int) func(*pthread.T) {
				c := ff
				c.Threads = p
				return fft.Program(c)
			},
		},
		{
			name:    "Sparse Matrix",
			problem: spmvProblem(sp),
			serial:  spmv.Serial(sp),
			fine:    spmv.Fine(sp),
			coarse: func(p int) func(*pthread.T) {
				c := sp
				c.Procs = p
				return spmv.Coarse(c)
			},
		},
		{
			name:    "Vol. Rend.",
			problem: fmt.Sprintf("%d^3 vol, %d^2 img", vr.Gen.W, vr.ImageSize),
			serial:  volrend.Serial(vr),
			fine:    volrend.Fine(vr),
			coarse: func(p int) func(*pthread.T) {
				c := vr
				c.Procs = p
				return volrend.Coarse(c)
			},
		},
	}
}

func spmvProblem(sp spmv.Config) string {
	nodes := sp.Gen.Nodes
	if nodes == 0 {
		nodes = 30169
	}
	return fmt.Sprintf("%d nodes", nodes)
}

func runFig8(w io.Writer, opt Options, procs int) error {
	rows := fig8Rows(opt.paper())
	tb := newTable(w)
	tb.row("benchmark", "problem", "coarse", "fine+FIFO", "fine+ADF", "max threads (ADF)")
	for _, r := range rows {
		serial := serialTime(r.serial)
		coarseCell := "-"
		if r.coarse != nil {
			st := run(pthread.Config{Procs: procs, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize},
				r.coarse(procs))
			coarseCell = fmt.Sprintf("%.2f", speedup(serial, st))
		}
		fifo := run(pthread.Config{Procs: procs, Policy: pthread.PolicyFIFO, DefaultStack: pthread.SmallStackSize}, r.fine)
		adf := run(pthread.Config{Procs: procs, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, r.fine)
		tb.row(r.name, r.problem, coarseCell,
			fmt.Sprintf("%.2f", speedup(serial, fifo)),
			fmt.Sprintf("%.2f", speedup(serial, adf)),
			adf.PeakLive)
	}
	tb.flush()
	fmt.Fprintf(w, "\npaper (8 procs): MM 3.65/6.56, BH 7.53/5.76/7.80, FMM 4.90/7.45, DT 5.23/5.25, FFTW 6.27/5.84/5.94, SpMV 6.14/4.41/5.96, VR 6.79/5.73/6.72\n")
	return nil
}

func runFig9(w io.Writer, opt Options) error {
	fm := fmmCfg(opt.paper())
	dt := dtreeCfg(opt.paper())
	procs := opt.procs(defaultProcs)

	for _, part := range []struct {
		label string
		prog  func(*pthread.T)
	}{
		{fmt.Sprintf("(a) FMM, N=%d", fm.N), fmm.Fine(fm)},
		{fmt.Sprintf("(b) Decision Tree, %d instances", dt.Gen.Instances), dtree.Fine(dt)},
	} {
		fmt.Fprintln(w, part.label)
		tb := newTable(w)
		tb.row("procs", "FIFO heap HWM (MB)", "ADF heap HWM (MB)", "FIFO total (MB)", "ADF total (MB)")
		for _, p := range procs {
			fifo := run(pthread.Config{Procs: p, Policy: pthread.PolicyFIFO, DefaultStack: pthread.SmallStackSize}, part.prog)
			adf := run(pthread.Config{Procs: p, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, part.prog)
			tb.row(p,
				fmt.Sprintf("%.2f", mb(fifo.HeapHWM)), fmt.Sprintf("%.2f", mb(adf.HeapHWM)),
				fmt.Sprintf("%.2f", mb(fifo.TotalHWM)), fmt.Sprintf("%.2f", mb(adf.TotalHWM)))
		}
		tb.flush()
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper: the new scheduler's footprint is lower and grows much more slowly with processors.")
	return nil
}

func runFig10(w io.Writer, opt Options) error {
	ff := fftCfg(opt.paper())
	serial := serialTime(fft.Program(ff))
	fmt.Fprintf(w, "1-D DFT, N=2^%d; serial time %v\n\n", ff.LogN, serial)
	tb := newTable(w)
	tb.row("procs", "p threads (time)", "256 thr, FIFO (time)", "256 thr, ADF (time)", "p-thr speedup", "256+ADF speedup")
	procs := opt.procs([]int{1, 2, 3, 4, 5, 6, 7, 8})
	for _, p := range procs {
		cp := ff
		cp.Threads = p
		pThreads := run(pthread.Config{Procs: p, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, fft.Program(cp))
		c256 := ff
		c256.Threads = 256
		fifo := run(pthread.Config{Procs: p, Policy: pthread.PolicyFIFO, DefaultStack: pthread.SmallStackSize}, fft.Program(c256))
		adf := run(pthread.Config{Procs: p, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, fft.Program(c256))
		tb.row(p, pThreads.Time, fifo.Time, adf.Time,
			fmt.Sprintf("%.2f", speedup(serial, pThreads)),
			fmt.Sprintf("%.2f", speedup(serial, adf)))
	}
	tb.flush()
	fmt.Fprintln(w, "\npaper: p threads wins marginally at p = 2,4,8; 256 threads wins at every other p (load balance).")
	return nil
}

func runFig11(w io.Writer, opt Options) error {
	vr := volrendCfg(opt.paper())
	serial := serialTime(volrend.Serial(vr))
	total := volrend.Tiles(vr.ImageSize)
	fmt.Fprintf(w, "volume rendering, %d tiles; serial time %v; 8 processors\n\n", total, serial)
	tb := newTable(w)
	tb.row("tiles/thread", "threads", "FIFO speedup", "ADF speedup")
	grans := []int{4, 8, 16, 32, 64, 130, 260}
	for _, g := range grans {
		if g > total {
			continue
		}
		cfg := vr
		cfg.TilesPerThread = g
		fifo := run(pthread.Config{Procs: 8, Policy: pthread.PolicyFIFO, DefaultStack: pthread.SmallStackSize}, volrend.Fine(cfg))
		adf := run(pthread.Config{Procs: 8, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, volrend.Fine(cfg))
		tb.row(g, (total+g-1)/g,
			fmt.Sprintf("%.2f", speedup(serial, fifo)),
			fmt.Sprintf("%.2f", speedup(serial, adf)))
	}
	tb.flush()
	fmt.Fprintln(w, "\npaper: best near ~60 tiles/thread; finer loses locality (original scheduler suffers more), far coarser loses load balance.")
	return nil
}
