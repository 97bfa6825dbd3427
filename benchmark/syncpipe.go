package main

import "spthreads/pthread"

// syncSizes fixes the three syncpipe phases.
type syncSizes struct {
	stages, capacity, items int // bounded-buffer pipeline
	parties, rounds         int // barrier
	trips                   int // semaphore ping-pong round trips
}

var (
	syncFull = syncSizes{stages: 8, capacity: 4, items: 40000, parties: 8, rounds: 2000, trips: 20000}
	syncTiny = syncSizes{stages: 8, capacity: 4, items: 625, parties: 8, rounds: 32, trips: 313}
)

// Sync objects bind to the backend of the run that first uses them, so
// every program below builds its own inside the run.

// item is one value in flight; put is when it entered the buffer
// (traced runs only).
type item struct {
	v   uint64
	put int64
}

// buffer is the classic bounded buffer: one mutex, two conditions.
type buffer struct {
	mu                pthread.Mutex
	notEmpty, notFull pthread.Cond
	ring              []item
	head, n           int
}

// tracedLock and tracedWait wrap the two calls of a buffer operation
// that can block; with rec == nil they are the bare calls.
func tracedLock(t *pthread.T, rec *recorder, me uint32, mu *pthread.Mutex) {
	if rec == nil {
		mu.Lock(t)
		return
	}
	s := rec.now()
	mu.Lock(t)
	rec.addSeq(me, spanMutexLock, 0, s, rec.now())
}

func tracedWait(t *pthread.T, rec *recorder, me uint32, c *pthread.Cond, mu *pthread.Mutex) {
	if rec == nil {
		c.Wait(t, mu)
		return
	}
	s := rec.now()
	c.Wait(t, mu)
	rec.addSeq(me, spanCondWait, 0, s, rec.now())
}

func (b *buffer) put(t *pthread.T, rec *recorder, me uint32, v uint64) {
	tracedLock(t, rec, me, &b.mu)
	for b.n == len(b.ring) {
		tracedWait(t, rec, me, &b.notFull, &b.mu)
	}
	it := item{v: v}
	if rec != nil {
		it.put = rec.now()
	}
	b.ring[(b.head+b.n)%len(b.ring)] = it
	b.n++
	b.notEmpty.Signal(t)
	b.mu.Unlock(t)
}

func (b *buffer) get(t *pthread.T, rec *recorder, me uint32) uint64 {
	tracedLock(t, rec, me, &b.mu)
	for b.n == 0 {
		tracedWait(t, rec, me, &b.notEmpty, &b.mu)
	}
	it := b.ring[b.head]
	b.head = (b.head + 1) % len(b.ring)
	b.n--
	b.notFull.Signal(t)
	b.mu.Unlock(t)
	if rec != nil {
		rec.addSeq(me, spanCondHandoff, 0, it.put, rec.now())
	}
	return it.v
}

// forkAll is the root thread of every syncpipe program: it creates n
// threads running body(t, k), and joins them. On traced runs the root
// records its creates and joins as thread n, and every thread its body,
// so that the (tiny) fork-path share of this workload is measured too.
func forkAll(t *pthread.T, rec *recorder, n int, body func(t *pthread.T, k int)) {
	hs := make([]*pthread.Thread, n)
	if rec == nil {
		for k := range hs {
			hs[k] = t.Create(func(t *pthread.T) { body(t, k) })
		}
		t.JoinAll(hs...)
		return
	}
	root := uint32(n)
	for k := range hs {
		slot := uint8(1 + k)
		s := rec.now()
		hs[k] = t.Create(func(t *pthread.T) {
			start := rec.now()
			body(t, k)
			rec.add(uint32(k), spanBody, slotBody, spanID(root, slot), start, rec.now())
		})
		rec.add(root, spanCreate, slot, 0, s, rec.now())
	}
	for k, h := range hs {
		s := rec.now()
		t.MustJoin(h)
		rec.addJoin(root, uint8(1+n+k), uint8(1+k), 0, s, rec.now())
	}
}

// stageFn is what stage k does to a value; odd multipliers keep it a
// bijection so no stage can be skipped unnoticed.
func stageFn(seed uint64, k int, v uint64) uint64 {
	return v*(mix(seed+uint64(k))|1) + uint64(k)
}

// pipelineProg pushes items through stages threads joined by bounded
// buffers: stage 0 generates, the last stage folds, the rest transform.
type pipelineProg struct {
	sz   syncSizes
	seed uint64
	sum  uint64
}

func (p *pipelineProg) fold(sum, v uint64) uint64 { return sum*31 + v }

// expected computes the sink's fold serially.
func (p *pipelineProg) expected() float64 {
	var sum uint64
	for i := 0; i < p.sz.items; i++ {
		v := mix(p.seed ^ uint64(i))
		for k := 1; k < p.sz.stages-1; k++ {
			v = stageFn(p.seed, k, v)
		}
		sum = p.fold(sum, v)
	}
	return float64(sum >> 12)
}

func (p *pipelineProg) checksum() float64 { return float64(p.sum >> 12) }

func (p *pipelineProg) ops() int64 { return int64(p.sz.items) * int64(p.sz.stages-1) }

func (p *pipelineProg) run(t *pthread.T, rec *recorder) {
	bufs := make([]*buffer, p.sz.stages-1)
	for i := range bufs {
		bufs[i] = &buffer{ring: make([]item, p.sz.capacity)}
	}
	last := p.sz.stages - 1
	p.sum = 0
	forkAll(t, rec, p.sz.stages, func(t *pthread.T, k int) {
		me := uint32(k)
		for i := 0; i < p.sz.items; i++ {
			switch k {
			case 0:
				bufs[0].put(t, rec, me, mix(p.seed^uint64(i)))
			case last:
				p.sum = p.fold(p.sum, bufs[k-1].get(t, rec, me))
			default:
				bufs[k].put(t, rec, me, stageFn(p.seed, k, bufs[k-1].get(t, rec, me)))
			}
		}
	})
}

// barrierProg runs parties threads through rounds barrier rounds.
type barrierProg struct {
	sz      syncSizes
	serials []int // per thread: rounds in which it was the releasing thread
}

func (p *barrierProg) expected() float64 { return float64(p.sz.rounds) }

// checksum is the number of rounds that had exactly one releasing
// thread, which is every round of a correct barrier.
func (p *barrierProg) checksum() float64 {
	total := 0
	for _, s := range p.serials {
		total += s
	}
	return float64(total)
}

func (p *barrierProg) ops() int64 { return int64(p.sz.parties) * int64(p.sz.rounds) }

func (p *barrierProg) run(t *pthread.T, rec *recorder) {
	bar := pthread.NewBarrier(p.sz.parties)
	p.serials = make([]int, p.sz.parties)
	forkAll(t, rec, p.sz.parties, func(t *pthread.T, k int) {
		for r := 0; r < p.sz.rounds; r++ {
			var s int64
			if rec != nil {
				s = rec.now()
			}
			if bar.Wait(t) {
				p.serials[k]++
			}
			if rec != nil {
				rec.addSeq(uint32(k), spanBarrierWait, 0, s, rec.now())
			}
		}
	})
}

// pingPongProg bounces a token between two threads over two semaphores.
type pingPongProg struct {
	sz   syncSizes
	seed uint64
	sum  uint64
}

func (p *pingPongProg) expected() float64 {
	var sum uint64
	for i := 0; i < p.sz.trips; i++ {
		sum = sum*3 + mix(p.seed+uint64(i))
	}
	return float64(sum >> 12)
}

func (p *pingPongProg) checksum() float64 { return float64(p.sum >> 12) }

func (p *pingPongProg) ops() int64 { return 2 * int64(p.sz.trips) }

func (p *pingPongProg) run(t *pthread.T, rec *recorder) {
	ping, pong := pthread.NewSemaphore(0), pthread.NewSemaphore(0)
	var token uint64
	p.sum = 0
	wait := func(t *pthread.T, me uint32, s *pthread.Semaphore) {
		if rec == nil {
			s.Wait(t)
			return
		}
		at := rec.now()
		s.Wait(t)
		rec.addSeq(me, spanSemWait, 0, at, rec.now())
	}
	forkAll(t, rec, 2, func(t *pthread.T, k int) {
		for i := 0; i < p.sz.trips; i++ {
			if k == 0 {
				token = mix(p.seed + uint64(i))
				ping.Post(t)
				wait(t, 0, pong)
			} else {
				wait(t, 1, ping)
				p.sum = p.sum*3 + token
				pong.Post(t)
			}
		}
	})
}
