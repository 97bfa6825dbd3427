package trace

import (
	"sync/atomic"

	"spthreads/internal/vtime"
)

// Ring is a fixed-capacity, lock-free event buffer for the native
// backend's hot paths. Each worker owns one ring, so appends are
// usually single-producer, but slot reservation is a CAS loop so
// occasional off-worker appends (timer goroutines, coordinator-side
// wakes routed to the shared machine ring) stay safe without a lock.
//
// The ring supports two consumption disciplines:
//
//   - Post-mortem (the native backend's tracer): no one drains during
//     the run, the read cursor stays at zero, the ring fills once,
//     further events are dropped-newest and counted, and Events returns
//     the survivors after every producer has quiesced.
//   - Incremental drain: a single consumer calls Drain periodically,
//     advancing the read cursor and freeing slots for reuse, so a
//     stream longer than the ring's capacity loses nothing as long as
//     the consumer keeps up. When it does not, producers drop (newest,
//     counted) exactly as in the post-mortem case.
//
// The protocol: a producer CAS-reserves the next absolute index i only
// when i-read < cap (so a reserved index is always written — there are
// no holes a drainer could stall on), writes slots[i%cap], then
// publishes by storing i+1 into committed[i%cap]. The consumer
// consumes indices in order, stopping at the first slot whose
// committed marker does not match (an in-flight producer), and stores
// the advanced read cursor only after copying the events out — the
// producer's reservation check loads read, so slot reuse happens-after
// consumption and the whole exchange is race-clean.
//
// The slot array is allocated once at construction; Record never
// allocates. Reservation is a CAS loop, but the ring is per-worker so
// the CAS almost never retries; the cost over a wait-free append is
// one extra load (read) and one extra store (committed).
type Ring struct {
	slots []Event
	// committed[s] holds i+1 after absolute index i (with s == i%cap)
	// has been fully written; the consumer matches it against the
	// index it wants to consume, which disambiguates a published slot
	// from a stale wrapped-around one.
	committed []atomic.Int64
	pos       atomic.Int64
	// read is the consumer's cursor: every index below it has been
	// consumed and its slot may be reused. Stays 0 when nothing drains.
	read    atomic.Int64
	dropped atomic.Int64
	// _pad rounds the struct up to a multiple of a 64-byte cache line:
	// workers bump their own ring's cursor on every event, and two
	// cursors sharing a line would ping-pong it between cores.
	_pad [40]byte
}

const defaultRingCap = 1 << 16

// NewRing creates a ring holding up to capacity events (0 selects
// 1<<16).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = defaultRingCap
	}
	return &Ring{
		slots:     make([]Event, capacity),
		committed: make([]atomic.Int64, capacity),
	}
}

// NewRings creates n rings of capEach slots (0 selects 1<<16 each),
// carved out of a single backing allocation. The native backend builds
// one ring per worker at run start; one slab instead of n keeps the
// allocator/GC traffic the tracer adds to a short run at a minimum.
func NewRings(n, capEach int) []*Ring {
	if capEach <= 0 {
		capEach = defaultRingCap
	}
	slab := make([]Event, n*capEach)
	marks := make([]atomic.Int64, n*capEach)
	rings := make([]*Ring, n)
	for i := range rings {
		rings[i] = &Ring{
			slots:     slab[i*capEach : (i+1)*capEach : (i+1)*capEach],
			committed: marks[i*capEach : (i+1)*capEach : (i+1)*capEach],
		}
	}
	return rings
}

// Record appends one event. It is allocation-free and lock-free: a CAS
// reserves a slot (no retries in the common single-producer case); a
// full ring — the undrained cursor span covering every slot — counts
// the drop and returns without blocking.
func (g *Ring) Record(at vtime.Time, proc int, thread int64, kind Kind, arg int64) {
	n := int64(len(g.slots))
	var i int64
	for {
		i = g.pos.Load()
		if i-g.read.Load() >= n {
			g.dropped.Add(1)
			return
		}
		if g.pos.CompareAndSwap(i, i+1) {
			break
		}
	}
	s := i % n
	g.slots[s] = Event{At: at, Proc: proc, Thread: thread, Kind: kind, Arg: arg}
	g.committed[s].Store(i + 1)
}

// Drain appends every committed-but-unconsumed event to buf in append
// order and advances the read cursor past them, freeing their slots
// for reuse. It stops early at an event a producer has reserved but
// not yet published. Only one goroutine may drain a given ring; Drain
// is safe against concurrent Record.
func (g *Ring) Drain(buf []Event) []Event {
	n := int64(len(g.slots))
	r := g.read.Load()
	p := g.pos.Load()
	for ; r < p; r++ {
		s := r % n
		if g.committed[s].Load() != r+1 {
			break
		}
		buf = append(buf, g.slots[s])
	}
	// Publish the cursor only after the events are copied out: the
	// producer's reservation check loads it, so the store orders slot
	// reuse after our reads.
	g.read.Store(r)
	return buf
}

// Events returns the recorded events not yet consumed by a drain, in
// append order. Only call after all producers have quiesced (the
// native backend merges rings after every worker has exited). For an
// undrained ring this is every surviving event.
func (g *Ring) Events() []Event {
	n := int64(len(g.slots))
	r, p := g.read.Load(), g.pos.Load()
	if r == 0 {
		return g.slots[:p] // never drained: no wraparound possible
	}
	out := make([]Event, 0, p-r)
	for ; r < p; r++ {
		out = append(out, g.slots[r%n])
	}
	return out
}

// Dropped reports how many events arrived while the ring was full.
func (g *Ring) Dropped() int64 { return g.dropped.Load() }

// Cap reports the ring's slot capacity.
func (g *Ring) Cap() int { return len(g.slots) }
