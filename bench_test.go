// Package spthreads' top-level benchmarks regenerate each of the
// paper's tables and figures as testing.B benchmarks (at reduced "small"
// problem sizes so `go test -bench=.` completes quickly; run
// `go run ./cmd/ptbench -scale paper all` for paper-scale numbers).
//
// Reported custom metrics:
//
//	vtime-ms     virtual makespan of the measured configuration
//	speedup      serial virtual time / parallel virtual time
//	heap-MB      simulated heap high-water mark
//	peak-threads maximum simultaneously live threads
package spthreads_test

import (
	"runtime"
	"testing"

	"spthreads/internal/barneshut"
	"spthreads/internal/core"
	"spthreads/internal/dtree"
	"spthreads/internal/fft"
	"spthreads/internal/fmm"
	"spthreads/internal/harness"
	"spthreads/internal/matmul"
	"spthreads/internal/spmv"
	"spthreads/internal/volrend"
	"spthreads/internal/vtime"
	"spthreads/pthread"
)

func runCfg(b *testing.B, cfg pthread.Config, prog func(*pthread.T)) pthread.Stats {
	b.Helper()
	var st pthread.Stats
	var err error
	for i := 0; i < b.N; i++ {
		st, err = pthread.Run(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
	}
	return st
}

func serialTime(b *testing.B, prog func(*pthread.T)) vtime.Duration {
	b.Helper()
	st, err := pthread.Run(pthread.Config{
		Procs: 1, Policy: pthread.PolicyLIFO, DefaultStack: pthread.SmallStackSize,
	}, prog)
	if err != nil {
		b.Fatal(err)
	}
	return st.Time
}

func report(b *testing.B, serial vtime.Duration, st pthread.Stats) {
	b.ReportMetric(float64(st.Time)/float64(vtime.Micro(1000)), "vtime-ms")
	if serial > 0 {
		b.ReportMetric(float64(serial)/float64(st.Time), "speedup")
	}
	b.ReportMetric(float64(st.HeapHWM)/(1<<20), "heap-MB")
	b.ReportMetric(float64(st.PeakLive), "peak-threads")
}

// BenchmarkThreadOps measures the real (wall-clock) cost of the
// runtime's basic operations — the analogue of Figure 3 for this
// implementation itself.
func BenchmarkThreadOps(b *testing.B) {
	b.Run("create-join", func(b *testing.B) {
		_, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyADF}, func(t *pthread.T) {
			for i := 0; i < b.N; i++ {
				h := t.Create(func(*pthread.T) {})
				t.MustJoin(h)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("mutex-uncontended", func(b *testing.B) {
		var mu pthread.Mutex
		_, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyADF}, func(t *pthread.T) {
			for i := 0; i < b.N; i++ {
				mu.Lock(t)
				mu.Unlock(t)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("charge", func(b *testing.B) {
		_, err := pthread.Run(pthread.Config{Procs: 1, Policy: pthread.PolicyADF}, func(t *pthread.T) {
			for i := 0; i < b.N; i++ {
				t.Charge(1)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFig1 regenerates Figure 1: active-thread counts of a serial
// execution of the 7-thread fork tree.
func BenchmarkFig1(b *testing.B) {
	prog := func(t *pthread.T) {
		leaf := func(tt *pthread.T) { tt.Charge(10) }
		node := func(tt *pthread.T) { tt.Par(leaf, leaf) }
		t.Par(node, node)
	}
	for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF} {
		b.Run(string(pol), func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 1, Policy: pol}, prog)
			b.ReportMetric(float64(st.PeakLive), "peak-threads")
		})
	}
}

// BenchmarkFig5 regenerates Figure 5: matrix multiply under the original
// FIFO scheduler with 1 MB default stacks.
func BenchmarkFig5(b *testing.B) {
	cfg := matmul.Config{N: 256, Leaf: 32}
	serial := serialTime(b, matmul.Serial(cfg))
	for _, p := range []int{1, 4, 8} {
		b.Run(benchName("p", p), func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: p, Policy: pthread.PolicyFIFO}, matmul.Fine(cfg))
			report(b, serial, st)
		})
	}
}

// BenchmarkFig6 regenerates Figure 6's breakdown source run (the
// breakdown itself is printed by `ptbench fig6`).
func BenchmarkFig6(b *testing.B) {
	cfg := matmul.Config{N: 256, Leaf: 32}
	st := runCfg(b, pthread.Config{Procs: 8, Policy: pthread.PolicyFIFO}, matmul.Fine(cfg))
	bd := st.Breakdown()
	b.ReportMetric(bd["memory"]*100, "mem-pct")
	b.ReportMetric(bd["work"]*100, "work-pct")
}

// BenchmarkFig7 regenerates Figure 7: each scheduler modification on the
// matrix multiply.
func BenchmarkFig7(b *testing.B) {
	cfg := matmul.Config{N: 256, Leaf: 32}
	serial := serialTime(b, matmul.Serial(cfg))
	variants := []struct {
		name  string
		pol   pthread.Policy
		stack int64
	}{
		{"orig-fifo-1MB", pthread.PolicyFIFO, pthread.DefaultStackSize},
		{"lifo-1MB", pthread.PolicyLIFO, pthread.DefaultStackSize},
		{"adf-1MB", pthread.PolicyADF, pthread.DefaultStackSize},
		{"lifo-8KB", pthread.PolicyLIFO, pthread.SmallStackSize},
		{"adf-8KB", pthread.PolicyADF, pthread.SmallStackSize},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 8, Policy: v.pol, DefaultStack: v.stack}, matmul.Fine(cfg))
			report(b, serial, st)
		})
	}
}

// BenchmarkFig8 regenerates the Figure 8 table rows: every benchmark
// under fine+FIFO and fine+ADF at 8 processors (and coarse where the
// paper has one).
func BenchmarkFig8(b *testing.B) {
	mm := matmul.Config{N: 256, Leaf: 32}
	bh := barneshut.Config{N: 3000, Steps: 1}
	fm := fmm.Config{N: 2000, Levels: 4}
	dt := dtree.Config{Gen: dtree.GenConfig{Instances: 20000}, MinLeaf: 500}
	ff := fft.Config{LogN: 14, Threads: 256}
	sp := spmv.Config{Gen: spmv.GenConfig{Nodes: 6000, TargetNNZ: 30000}, Iterations: 5, FineThreads: 32}
	vr := volrend.Config{Gen: volrend.GenConfig{W: 64}, ImageSize: 128, Frames: 1}

	rows := []struct {
		name         string
		serial, fine func(*pthread.T)
		coarse       func(*pthread.T) // nil if none
	}{
		{"matmul", matmul.Serial(mm), matmul.Fine(mm), nil},
		{"barneshut", barneshut.Serial(bh), barneshut.Fine(bh), barneshut.Coarse(withBHProcs(bh, 8))},
		{"fmm", fmm.Serial(fm), fmm.Fine(fm), nil},
		{"dtree", dtree.Serial(dt), dtree.Fine(dt), nil},
		{"fft", fft.Program(fft.Config{LogN: 14, Threads: 1}), fft.Program(ff), fft.Program(fft.Config{LogN: 14, Threads: 8})},
		{"spmv", spmv.Serial(sp), spmv.Fine(sp), spmv.Coarse(withSpmvProcs(sp, 8))},
		{"volrend", volrend.Serial(vr), volrend.Fine(vr), volrend.Coarse(withVRProcs(vr, 8))},
	}
	for _, r := range rows {
		serial := serialTime(b, r.serial)
		b.Run(r.name+"/fine-fifo", func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 8, Policy: pthread.PolicyFIFO, DefaultStack: pthread.SmallStackSize}, r.fine)
			report(b, serial, st)
		})
		b.Run(r.name+"/fine-adf", func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 8, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, r.fine)
			report(b, serial, st)
		})
		if r.coarse != nil {
			b.Run(r.name+"/coarse", func(b *testing.B) {
				st := runCfg(b, pthread.Config{Procs: 8, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, r.coarse)
				report(b, serial, st)
			})
		}
	}
}

func withBHProcs(c barneshut.Config, p int) barneshut.Config {
	c.Procs = p
	return c
}

func withSpmvProcs(c spmv.Config, p int) spmv.Config {
	c.Procs = p
	return c
}

func withVRProcs(c volrend.Config, p int) volrend.Config {
	c.Procs = p
	return c
}

// BenchmarkFig9 regenerates Figure 9: memory high-water marks of the FMM
// and the decision-tree builder under both schedulers.
func BenchmarkFig9(b *testing.B) {
	fm := fmm.Config{N: 2000, Levels: 4}
	dt := dtree.Config{Gen: dtree.GenConfig{Instances: 20000}, MinLeaf: 500}
	for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyADF} {
		b.Run("fmm/"+string(pol), func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 8, Policy: pol, DefaultStack: pthread.SmallStackSize}, fmm.Fine(fm))
			report(b, 0, st)
		})
		b.Run("dtree/"+string(pol), func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 8, Policy: pol, DefaultStack: pthread.SmallStackSize}, dtree.Fine(dt))
			report(b, 0, st)
		})
	}
}

// BenchmarkFig10 regenerates Figure 10: the FFT with p threads vs 256
// threads under both schedulers, at an off-power-of-two processor count
// where the load-balance difference shows.
func BenchmarkFig10(b *testing.B) {
	logn := 16
	serial := serialTime(b, fft.Program(fft.Config{LogN: logn, Threads: 1}))
	for _, c := range []struct {
		name    string
		threads int
		pol     pthread.Policy
	}{
		{"p-threads", 6, pthread.PolicyADF},
		{"256-threads-fifo", 256, pthread.PolicyFIFO},
		{"256-threads-adf", 256, pthread.PolicyADF},
	} {
		b.Run(c.name, func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 6, Policy: c.pol, DefaultStack: pthread.SmallStackSize},
				fft.Program(fft.Config{LogN: logn, Threads: c.threads}))
			report(b, serial, st)
		})
	}
}

// BenchmarkFig11 regenerates Figure 11: volume-rendering speedup vs
// thread granularity.
func BenchmarkFig11(b *testing.B) {
	vr := volrend.Config{Gen: volrend.GenConfig{W: 64}, ImageSize: 128, Frames: 1}
	serial := serialTime(b, volrend.Serial(vr))
	for _, g := range []int{4, 16, 64, 256} {
		cfg := vr
		cfg.TilesPerThread = g
		for _, pol := range []pthread.Policy{pthread.PolicyFIFO, pthread.PolicyADF} {
			b.Run(benchName("tiles", g)+"-"+string(pol), func(b *testing.B) {
				st := runCfg(b, pthread.Config{Procs: 8, Policy: pol, DefaultStack: pthread.SmallStackSize}, volrend.Fine(cfg))
				report(b, serial, st)
			})
		}
	}
}

// BenchmarkAblationK regenerates the quota ablation: ADF space/time vs K.
func BenchmarkAblationK(b *testing.B) {
	cfg := matmul.Config{N: 256, Leaf: 32}
	serial := serialTime(b, matmul.Serial(cfg))
	for _, k := range []int64{16 << 10, 128 << 10, 1 << 20} {
		b.Run(benchName("K", int(k>>10)), func(b *testing.B) {
			st := runCfg(b, pthread.Config{
				Procs: 8, Policy: pthread.PolicyADF, MemQuota: k, DefaultStack: pthread.SmallStackSize,
			}, matmul.Fine(cfg))
			report(b, serial, st)
			b.ReportMetric(float64(st.DummyThreads), "dummies")
		})
	}
}

// BenchmarkAblationWS regenerates the space-bound ablation: ADF vs
// work-stealing memory at 8 processors.
func BenchmarkAblationWS(b *testing.B) {
	cfg := matmul.Config{N: 256, Leaf: 32}
	for _, pol := range []pthread.Policy{pthread.PolicyADF, pthread.PolicyWS, pthread.PolicyLIFO} {
		b.Run(string(pol), func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 8, Policy: pol, DefaultStack: pthread.SmallStackSize}, matmul.Fine(cfg))
			report(b, 0, st)
		})
	}
}

// BenchmarkHarnessSmall smoke-runs every registered experiment at small
// scale (the same entry points `ptbench` uses).
func BenchmarkHarnessSmall(b *testing.B) {
	for _, e := range harness.Experiments() {
		if e.ID == "scale" || e.ID == "fig8" {
			continue // covered by BenchmarkFig8; too slow to repeat here
		}
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(discard{}, harness.Options{Scale: "small"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}

// BenchmarkStrassen contrasts Strassen's seven-product recursion with
// the classic eight-product algorithm under the space-efficient
// scheduler.
func BenchmarkStrassen(b *testing.B) {
	cfg := matmul.Config{N: 256, Leaf: 32}
	serial := serialTime(b, matmul.Serial(cfg))
	b.Run("classic", func(b *testing.B) {
		st := runCfg(b, pthread.Config{Procs: 8, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, matmul.Fine(cfg))
		report(b, serial, st)
	})
	b.Run("strassen", func(b *testing.B) {
		st := runCfg(b, pthread.Config{Procs: 8, Policy: pthread.PolicyADF, DefaultStack: pthread.SmallStackSize}, matmul.Strassen(cfg))
		report(b, serial, st)
	})
}

// BenchmarkSchedulers compares every policy on the same fine-grained
// matrix multiply.
func BenchmarkSchedulers(b *testing.B) {
	cfg := matmul.Config{N: 256, Leaf: 32}
	serial := serialTime(b, matmul.Serial(cfg))
	for _, pol := range []pthread.Policy{
		pthread.PolicyFIFO, pthread.PolicyLIFO, pthread.PolicyADF,
		pthread.PolicyWS, pthread.PolicyDFD,
	} {
		b.Run(string(pol), func(b *testing.B) {
			st := runCfg(b, pthread.Config{Procs: 8, Policy: pol, DefaultStack: pthread.SmallStackSize}, matmul.Fine(cfg))
			report(b, serial, st)
		})
	}
}

// nativeCfg is the native backend's default configuration (ADF) at p
// processors, with small stacks so a deep tree stays cheap to account.
func nativeCfg(p int) pthread.Config {
	return pthread.Config{Backend: pthread.BackendNative, Procs: p, DefaultStack: pthread.SmallStackSize}
}

// nativeProcs is the processor sweep of the native benchmarks: one, and
// as many as the host runs in parallel.
func nativeProcs() []int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// forkJoinTree runs a binary fork/join tree of n threads, t included.
func forkJoinTree(t *pthread.T, n int) {
	if n--; n == 0 {
		return
	}
	l := t.Create(func(c *pthread.T) { forkJoinTree(c, (n+1)/2) })
	if n/2 == 0 {
		t.MustJoin(l)
		return
	}
	r := t.Create(func(c *pthread.T) { forkJoinTree(c, n/2) })
	t.MustJoin(l)
	t.MustJoin(r)
}

// BenchmarkNativeForkJoin is the native backend's per-thread cost: a
// binary fork/join tree of b.N empty threads, so ns/op and allocs/op are
// one lightweight thread's create, dispatch, exit and join.
func BenchmarkNativeForkJoin(b *testing.B) {
	for _, p := range nativeProcs() {
		b.Run(benchName("p", p), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := pthread.Run(nativeCfg(p), func(t *pthread.T) { forkJoinTree(t, b.N+1) }); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkNativeSemPingPong bounces one token between two threads
// through a pair of semaphores: one op is a post, a block and a wake,
// the cost of handing a processor between two parked threads.
func BenchmarkNativeSemPingPong(b *testing.B) {
	for _, p := range nativeProcs() {
		b.Run(benchName("p", p), func(b *testing.B) {
			ping, pong := pthread.NewSemaphore(0), pthread.NewSemaphore(0)
			b.ReportAllocs()
			_, err := pthread.Run(nativeCfg(p), func(t *pthread.T) {
				h := t.Create(func(c *pthread.T) {
					for i := 0; i < b.N; i++ {
						ping.Wait(c)
						pong.Post(c)
					}
				})
				for i := 0; i < b.N; i++ {
					ping.Post(t)
					pong.Wait(t)
				}
				t.MustJoin(h)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// condBuffer is a four-slot bounded buffer on one mutex and two
// condition variables, the classic link between pipeline stages.
type condBuffer struct {
	mu                pthread.Mutex
	notEmpty, notFull pthread.Cond
	ring              [4]int
	head, n           int
}

func (c *condBuffer) put(t *pthread.T, v int) {
	c.mu.Lock(t)
	for c.n == len(c.ring) {
		c.notFull.Wait(t, &c.mu)
	}
	c.ring[(c.head+c.n)%len(c.ring)] = v
	c.n++
	c.notEmpty.Signal(t)
	c.mu.Unlock(t)
}

func (c *condBuffer) get(t *pthread.T) int {
	c.mu.Lock(t)
	for c.n == 0 {
		c.notEmpty.Wait(t, &c.mu)
	}
	v := c.ring[c.head]
	c.head = (c.head + 1) % len(c.ring)
	c.n--
	c.notFull.Signal(t)
	c.mu.Unlock(t)
	return v
}

// BenchmarkNativeCondPipeline pushes b.N items through four threads
// joined by three bounded buffers: one op is an item's passage, three
// puts and three gets, each a Lock, a Signal (mostly with no waiter)
// and an Unlock, plus the waits and handoffs when a buffer runs full or
// empty.
func BenchmarkNativeCondPipeline(b *testing.B) {
	for _, p := range nativeProcs() {
		b.Run(benchName("p", p), func(b *testing.B) {
			b.ReportAllocs()
			var bufs [3]condBuffer
			sum := 0
			_, err := pthread.Run(nativeCfg(p), func(t *pthread.T) {
				hs := []*pthread.Thread{t.Create(func(c *pthread.T) {
					for i := 0; i < b.N; i++ {
						bufs[0].put(c, i)
					}
				})}
				for k := 1; k < len(bufs); k++ {
					hs = append(hs, t.Create(func(c *pthread.T) {
						for i := 0; i < b.N; i++ {
							bufs[k].put(c, bufs[k-1].get(c)+1)
						}
					}))
				}
				for i := 0; i < b.N; i++ {
					sum += bufs[len(bufs)-1].get(t)
				}
				t.JoinAll(hs...)
			})
			if err != nil {
				b.Fatal(err)
			}
			if want := b.N*(b.N-1)/2 + 2*b.N; sum != want {
				b.Fatalf("sum %d, want %d", sum, want)
			}
		})
	}
}

// BenchmarkNativeYield is one preemption: two threads on one processor
// yielding to each other (FIFO, so the yielder goes to the back and the
// other thread is the successor), so every op re-enters the ready
// structure and passes the processor on.
func BenchmarkNativeYield(b *testing.B) {
	cfg := nativeCfg(1)
	cfg.Policy = pthread.PolicyFIFO
	b.ReportAllocs()
	_, err := pthread.Run(cfg, func(t *pthread.T) {
		h := t.Create(func(c *pthread.T) {
			for i := 0; i < b.N/2; i++ {
				c.Yield()
			}
		})
		for i := 0; i < b.N/2; i++ {
			t.Yield()
		}
		t.MustJoin(h)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// simCfg is the simulator's default configuration (ADF) at p virtual
// processors, with small stacks as in nativeCfg.
func simCfg(p int) pthread.Config {
	return pthread.Config{Procs: p, DefaultStack: pthread.SmallStackSize}
}

// BenchmarkSimForkJoin is the simulator's host cost per thread: the same
// b.N-thread fork/join tree as BenchmarkNativeForkJoin, on 1 and 8
// virtual processors.
func BenchmarkSimForkJoin(b *testing.B) {
	for _, p := range []int{1, 8} {
		b.Run(benchName("p", p), func(b *testing.B) {
			b.ReportAllocs()
			if _, err := pthread.Run(simCfg(p), func(t *pthread.T) { forkJoinTree(t, b.N+1) }); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSimPause is one quantum pause: a lone thread charging a full
// quantum per op stops, runs the scheduler and, still holding the
// minimum clock, picks itself.
func BenchmarkSimPause(b *testing.B) {
	b.ReportAllocs()
	_, err := pthread.Run(simCfg(1), func(t *pthread.T) {
		for i := 0; i < b.N; i++ {
			t.Charge(int64(core.Quantum))
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
