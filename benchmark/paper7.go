package main

import (
	"spthreads/internal/barneshut"
	"spthreads/internal/dtree"
	"spthreads/internal/fft"
	"spthreads/internal/fmm"
	"spthreads/internal/matmul"
	"spthreads/internal/spmv"
	"spthreads/internal/volrend"
	"spthreads/pthread"
)

// kernelSizes are the paper's seven fine-grained programs at the sizes
// this benchmark fixes. They started from the harness's native-tuned
// matrix (copied, not imported) and were adjusted so each program takes
// roughly 20–150 ms at Procs = 1 on the reference host. The kernels'
// own Check options stay off: the benchmark verifies checksums itself.
type kernelSizes struct {
	mmN, mmLeaf             int
	bhN                     int
	dtInstances, dtMinLeaf  int
	fftLogN, fftThreads     int
	spNodes, spNNZ, spIters int
	spThreads               int
	fmmN, fmmLevels         int
	vrW, vrImage            int
}

var (
	kernelsFull = kernelSizes{
		mmN: 256, mmLeaf: 16,
		bhN:         6000,
		dtInstances: 8000, dtMinLeaf: 100,
		fftLogN: 18, fftThreads: 512,
		spNodes: 6000, spNNZ: 30000, spIters: 40, spThreads: 256,
		fmmN: 6000, fmmLevels: 5,
		vrW: 64, vrImage: 128,
	}
	kernelsTiny = kernelSizes{
		mmN: 32, mmLeaf: 16,
		bhN:         128,
		dtInstances: 400, dtMinLeaf: 100,
		fftLogN: 10, fftThreads: 8,
		spNodes: 200, spNNZ: 1000, spIters: 2, spThreads: 8,
		fmmN: 200, fmmLevels: 3,
		vrW: 16, vrImage: 32,
	}
)

// kernelNames is the order programs run in and the prefix of each
// kernel's per-layer rows.
var kernelNames = []string{"matmul", "barneshut", "dtree", "fft", "spmv", "fmm", "volrend"}

// kernelPrograms builds the seven programs. Every generator seed comes
// from the benchmark seed; each program returns a position-weighted
// checksum of its output, which is schedule-independent by the kernels'
// construction (disjoint writes, ordered reductions).
func kernelPrograms(sz kernelSizes, seed uint64) []*program {
	sub := func(k uint64) int64 { return int64(mix(seed*8+k)>>2) | 1 }
	bodies := []func(*pthread.T) float64{
		func(t *pthread.T) float64 {
			n := sz.mmN
			a, b, c := matmul.New(t, n), matmul.New(t, n), matmul.New(t, n)
			a.FillRandom(t, sub(0))
			b.FillRandom(t, sub(0)+1)
			c.Zero(t)
			matmul.ParallelMultAdd(t, a, b, c, sz.mmLeaf)
			var sum float64
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					sum += c.At(i, j) * float64(i*131+j+1)
				}
			}
			return sum
		},
		func(t *pthread.T) float64 {
			pos := barneshut.FineRun(t, barneshut.Config{
				N: sz.bhN, Steps: 1, Seed: sub(1), InsertChunk: 32, SubtreeLeaves: 2,
			})
			var sum float64
			for i, p := range pos {
				sum += float64(i+1) * (p.X + 2*p.Y + 3*p.Z)
			}
			return sum
		},
		func(t *pthread.T) float64 {
			d := dtree.Generate(t, dtree.GenConfig{Instances: sz.dtInstances, Attrs: 4, Seed: sub(2)})
			root := dtree.Build(t, d, sz.dtMinLeaf)
			var sum float64
			var walk func(n *dtree.Node, depth float64)
			walk = func(n *dtree.Node, depth float64) {
				switch {
				case n == nil:
				case n.Leaf:
					v := 1.0
					if n.Class {
						v = 2.0
					}
					sum += depth * (v + float64(n.Count))
				default:
					sum += depth * (float64(n.Attr+1)*1e3 + n.Split)
					walk(n.Left, depth+1)
					walk(n.Right, depth+1)
				}
			}
			walk(root, 1)
			return float64(root.Size())*1e6 + sum
		},
		func(t *pthread.T) float64 {
			n := 1 << sz.fftLogN
			plan := fft.NewPlan(t, n)
			src, dst := fft.NewVector(t, n), fft.NewVector(t, n)
			src.FillRandom(t, sub(3))
			fft.Transform(t, plan, src, dst, sz.fftThreads)
			var sum float64
			for i, c := range dst.Data {
				sum += float64(i%251+1) * (real(c) + 2*imag(c))
			}
			dst.Free(t)
			src.Free(t)
			plan.Free(t)
			return sum
		},
		func(t *pthread.T) float64 {
			return spmv.FineChecksum(t, spmv.Config{
				Gen:        spmv.GenConfig{Nodes: sz.spNodes, TargetNNZ: sz.spNNZ, Seed: sub(4)},
				Iterations: sz.spIters, FineThreads: sz.spThreads,
			})
		},
		func(t *pthread.T) float64 {
			// NeighborChunk above the 2-D interaction-list maximum (27)
			// makes one thread accumulate each cell's local expansion, the
			// kernel's only schedule-dependent floating-point sum otherwise.
			s := fmm.NewSystem(t, fmm.Config{
				N: sz.fmmN, Levels: sz.fmmLevels, NeighborChunk: 32, CellBatch: 1, Seed: sub(5),
			})
			s.Run(t, true)
			var sum float64
			for i, p := range s.Pot {
				sum += p * float64(i%113+1)
			}
			s.Free(t)
			return sum
		},
		func(t *pthread.T) float64 {
			return volrend.RenderChecksum(t, volrend.Config{
				Gen:       volrend.GenConfig{W: sz.vrW, Seed: sub(6)},
				ImageSize: sz.vrImage, Frames: 1, TilesPerThread: 1,
			}, "fine")
		},
	}
	progs := make([]*program, len(bodies))
	for i, body := range bodies {
		var sum float64
		progs[i] = &program{
			name:     kernelNames[i],
			slots:    1,
			run:      func(t *pthread.T, _ *recorder) { sum = body(t) },
			checksum: func() float64 { return sum },
		}
	}
	return progs
}
