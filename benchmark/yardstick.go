package main

import (
	"runtime"
	"time"
)

// The yardstick is a fixed piece of work of the benchmark's own (it
// calls nothing of the library) that is timed next to every pass. The
// benchmark's host is a small virtual machine on a shared computer:
// for minutes at a time everything that leaves the first-level cache
// runs 30-40 % slower there, goroutine switches included, while
// register-only loops do not move. A run's wall times are therefore
// reported relative to the yardstick's median in that run, scaled to
// yardstickNominalMS, so that a spell of busy neighbours does not read
// as a slower program. Sets of ten runs of one commit that spread by
// 10-35 % in raw milliseconds spread by 2-10 % this way.
//
// Its three parts were chosen among seven candidates as the ones whose
// time moved in step with the workloads' (a pure ALU chain and an
// independent-multiply loop stayed flat; an L2-sized matrix product
// swung up to twice as far as the workloads, so it gets a small share):
// streaming over 16 MB, a goroutine ping-pong over unbuffered channels,
// and a 160 x 160 matrix product.
const (
	// yardstickNominalMS is what one yardstick takes on the reference
	// host when its neighbours are quiet: reported times are "ms on a
	// host where the yardstick takes this long".
	yardstickNominalMS = 20.0

	yardStreamWords  = 2 << 20 // float64s: 16 MB
	yardStreamPasses = 3
	yardTrips        = 20000
	yardMatN         = 160
)

type yardstick struct {
	stream  []float64
	trips   int
	a, b, c []float64
	// sink folds every result in, and is printed, so that none of the
	// work can be compiled away.
	sink float64
}

// newYardstick builds the yardstick; div shrinks it for tests, as tiny
// does the workloads.
func newYardstick(div int) *yardstick {
	y := &yardstick{
		stream: make([]float64, yardStreamWords/div),
		trips:  yardTrips / div,
		a:      make([]float64, yardMatN*yardMatN),
		b:      make([]float64, yardMatN*yardMatN),
		c:      make([]float64, yardMatN*yardMatN),
	}
	for i := range y.a {
		y.a[i], y.b[i] = float64(i%7), float64(i%5)
	}
	y.run(runtime.GOMAXPROCS(0)) // touch every page before anything is timed
	return y
}

// run does the fixed work once under the given GOMAXPROCS (the one the
// workload's programs run under) and returns how long it took in ms.
func (y *yardstick) run(goProcs int) float64 {
	if runtime.GOMAXPROCS(0) != goProcs {
		runtime.GOMAXPROCS(goProcs)
	}
	start := time.Now()

	for pass := 0; pass < yardStreamPasses; pass++ {
		s := 0.0
		for i, v := range y.stream {
			s += v
			y.stream[i] = v*0.5 + 1 // stays below 2
		}
		y.sink += s
	}

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := 0
	for i := 0; i < y.trips; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong // the other goroutine has ended
	y.sink += float64(v)

	const n = yardMatN
	for i := 0; i < n; i++ {
		crow := y.c[i*n : i*n+n]
		for k := 0; k < n; k++ {
			aik := y.a[i*n+k]
			for j, bkj := range y.b[k*n : k*n+n] {
				crow[j] = crow[j]*0.5 + aik*bkj
			}
		}
	}
	y.sink += y.c[n+1]

	return float64(time.Since(start)) / 1e6
}
