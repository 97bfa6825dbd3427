package core

import (
	"iter"
	"sync"
	"sync/atomic"
)

// Carrier is the thread-execution vehicle both backends share: one
// pooled iter.Pull coroutine that runs riders (lightweight threads) one
// after another. Each processor is a driver loop — the native worker
// goroutine, or the simulator's Execute goroutine — that picks a
// thread, resumes its carrier, and takes back the successor the thread
// yields when it gives the processor up. A thread switch is therefore
// two coroswitches, rider → driver → successor, with no channel, no run
// queue and no Go scheduler wake. A thread is launched onto an idle
// carrier from the driver's free list at its first run (a fresh
// coroutine only when the list is empty); when it exits, the carrier
// yields the thread's successor and the driver puts the carrier back.
// Native keeps one list per processor; the simulator, with one driver,
// one.
//
// A coroswitch requires matching OS-thread locking on both sides, so a
// rider must not hold runtime.LockOSThread across Switch: the runtime
// throws ("coro: OS thread locking must match"), it does not panic.
type Carrier struct {
	// mu is held by the driver while the coroutine runs. Another
	// processor can mark a thread running before the thread has yielded
	// (wake-before-park); its driver then blocks here until the yield.
	mu sync.Mutex

	resume func() (Rider, bool) // iter.Pull's next: run to the next yield
	stop   func()               // iter.Pull's stop: unwind at shutdown
	yield  func(Rider) bool     // the coroutine's side of resume

	// rider is the thread the carrier runs, written by the driver before
	// a launch and cleared by the coroutine when the thread has finished
	// (the carrier is idle). pid is the processor of the current resume.
	// Both are read and written under mu.
	rider Rider
	pid   int

	next *Carrier // free-list link
}

// FreeLink implements the FreeList element constraint.
func (c *Carrier) FreeLink() **Carrier { return &c.next }

// Rider is a lightweight thread as its carrier runs it.
type Rider interface {
	// Ride runs the thread's body on carrier c, launched onto processor
	// pid.
	Ride(c *Carrier, pid int)
	// Finish completes the thread after its body returned, unwound
	// through ExitThread, or panicked with p (nil otherwise). It returns
	// the successor the driver runs next on the same processor, or nil
	// for the driver's own pick.
	Finish(p any) Rider
}

// Switch gives the calling rider's processor to next (nil: the driver
// picks) and parks until a driver resumes it, returning that driver's
// processor. At shutdown it unwinds the rider instead.
func (c *Carrier) Switch(next Rider) int {
	if !c.yield(next) {
		panic(threadAbort{})
	}
	return c.pid
}

// ExitThread unwinds the calling thread's body to its carrier, which
// finishes the thread as if the body had returned (pthread_exit).
func ExitThread() { panic(threadExit{}) }

// loop is the coroutine body: it runs the launched rider to completion,
// marks the carrier idle and yields the rider's successor, then waits
// for the next launch. It returns when shutdown unwinds a parked rider
// or stops an idle carrier.
func (c *Carrier) loop(yield func(Rider) bool) {
	c.yield = yield
	for {
		next, ok := c.runOne(c.rider)
		if !ok {
			return
		}
		c.rider = nil
		if !yield(next) {
			return
		}
	}
}

// runOne executes r to completion and returns its successor; ok is false
// when shutdown unwound r while it was parked.
func (c *Carrier) runOne(r Rider) (next Rider, ok bool) {
	defer func() {
		p := recover()
		switch p.(type) {
		case threadAbort:
			return
		case threadExit:
			p = nil
		}
		next, ok = r.Finish(p), true
	}()
	r.Ride(c, c.pid)
	return nil, false
}

// Carriers is a backend's carrier pool: the free lists and the registry
// of every carrier started (for the shutdown walk).
type Carriers struct {
	free []FreeList[Carrier, *Carrier]

	mu  sync.Mutex // guards all
	all []*Carrier
}

// NewCarriers returns a pool with the given number of free lists.
func NewCarriers(lists int) *Carriers {
	return &Carriers{free: make([]FreeList[Carrier, *Carrier], lists)}
}

// Launch runs r from its first instruction on an idle carrier from free
// list `list` (a fresh coroutine when it is empty), as processor pid,
// until r gives the processor up; it returns the successor r yielded.
// Only the driver that owns the list launches from it or puts to it.
func (p *Carriers) Launch(list int, r Rider, pid int) Rider {
	c := p.free[list].Pop()
	if c == nil {
		c = new(Carrier)
		c.resume, c.stop = iter.Pull(c.loop)
		p.mu.Lock()
		p.all = append(p.all, c)
		p.mu.Unlock()
	}
	c.rider = r
	return p.Resume(list, r, c, pid)
}

// Resume hands processor pid to r, parked on c, and runs it until it
// gives the processor up, waiting first for a rider that another
// processor marked running before it yielded. It returns the successor
// r yielded; a carrier whose rider finished goes back on free list
// `list`, after its yield. A resume of a rider that has exited — one
// resume too many for its parks — panics.
func (p *Carriers) Resume(list int, r Rider, c *Carrier, pid int) Rider {
	c.mu.Lock()
	if c.rider != r {
		panic("core: resumed a thread that is not parked on its carrier")
	}
	c.pid = pid
	next, _ := c.resume()
	idle := c.rider == nil
	c.mu.Unlock()
	if idle {
		p.free[list].Push(c)
	}
	return next
}

// Started reports how many carrier coroutines the pool has launched.
func (p *Carriers) Started() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all)
}

// Shutdown stops every carrier: a parked rider's Switch unwinds it, an
// idle carrier just returns. The caller guarantees that every driver
// has stopped, so no coroutine is running. Threads that never ran have
// no carrier and need nothing.
func (p *Carriers) Shutdown() {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// FreeList is a lock-free Treiber stack of *T linked through each
// element's FreeLink, padded so neighbouring lists in a slice do not
// share a cache line. Pushes may come from any goroutine; pops on one
// list must be serialized (in happens-before order), so the ABA hazard
// cannot bite.
type FreeList[T any, P interface {
	*T
	FreeLink() **T
}] struct {
	head atomic.Pointer[T]
	_    [64 - 8]byte
}

// Push adds x to the list.
func (f *FreeList[T, P]) Push(x P) {
	for {
		h := f.head.Load()
		*x.FreeLink() = h
		if f.head.CompareAndSwap(h, (*T)(x)) {
			return
		}
	}
}

// Pop removes and returns the newest element, or nil when the list is
// empty.
func (f *FreeList[T, P]) Pop() P {
	for {
		h := P(f.head.Load())
		if h == nil {
			return nil
		}
		if f.head.CompareAndSwap((*T)(h), *h.FreeLink()) {
			*h.FreeLink() = nil
			return h
		}
	}
}
