package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Carrier is the thread-execution vehicle both backends share: one
// goroutine plus one resume mailbox, reused across lightweight-thread
// lifetimes. A thread is launched onto an idle carrier from a free list
// at its first run (a fresh goroutine only when the list is empty),
// parks in the carrier's mailbox whenever it does not hold a processor,
// and at exit the carrier goes back on a free list. Native keeps one
// list per processor; the simulator, with one runnable goroutine, one.
type Carrier struct {
	mailbox chan int // one-slot: a launch or resume post, or PoisonPid

	// rider is the thread to run next, written by the launcher before
	// its post and read by the carrier goroutine only after the matching
	// receive (channel happens-before). Once a carrier is back on a free
	// list the next launcher may store here while the goroutine is still
	// unwinding the previous thread's exit, so nothing else reads it.
	rider Rider

	next *Carrier // free-list link
}

// FreeLink implements the FreeList element constraint.
func (c *Carrier) FreeLink() **Carrier { return &c.next }

// Rider is a lightweight thread as its carrier runs it.
type Rider interface {
	// Ride runs the thread's body on carrier c, whose launch post
	// carried processor pid.
	Ride(c *Carrier, pid int)
	// Finish completes the thread after its body returned, unwound
	// through ExitThread, or panicked with p (nil otherwise). It returns
	// a successor the carrier adopts and runs next on the same goroutine
	// (with the same pid), or nil to go back to the mailbox. A Finish
	// that puts the carrier back on a free list must return nil.
	Finish(p any) Rider
}

// PoisonPid in a resume mailbox unwinds the parked goroutine at
// shutdown; every other post carries a processor id.
const PoisonPid = -1

// Post drops pid into the carrier's mailbox without blocking. Both
// backends hand a processor over this way. A full slot means a thread
// was resumed twice for one park: a scheduler bug.
func (c *Carrier) Post(pid int) {
	select {
	case c.mailbox <- pid:
	default:
		panic("core: resume mailbox overflow")
	}
}

// Park blocks the riding thread until a post resumes it and returns the
// processor id the post carried. Poison unwinds the thread instead.
func (c *Carrier) Park() int {
	pid := <-c.mailbox
	if pid == PoisonPid {
		panic(threadAbort{})
	}
	return pid
}

// ExitThread unwinds the calling thread's body to its carrier, which
// finishes the thread as if the body had returned (pthread_exit).
func ExitThread() { panic(threadExit{}) }

// run is the carrier goroutine. Exactly one receive is outstanding at
// any moment (here between threads, or inside a rider's Park) and at
// most one post is headed for it: a launch after a pop (one per Put),
// or a resume of the parked rider. Hence the one-slot mailbox and the
// one-post poison protocol. The next rider is read after a receive, or
// taken from Finish's return value, never re-read from a shared field.
func (c *Carrier) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		pid := <-c.mailbox
		if pid == PoisonPid {
			return
		}
		r := c.rider
		for r != nil {
			r = c.runOne(r, pid)
		}
	}
}

// runOne executes r to completion and returns the successor Finish
// adopted. Poison while r was parked mid-body ends the goroutine: the
// carrier is not reused.
func (c *Carrier) runOne(r Rider, pid int) (next Rider) {
	defer func() {
		p := recover()
		switch p.(type) {
		case threadAbort:
			runtime.Goexit()
		case threadExit:
			p = nil
		}
		next = r.Finish(p)
	}()
	r.Ride(c, pid)
	return nil
}

// Carriers is a backend's carrier pool: the free lists, the registry of
// every carrier started (for the shutdown poison walk), and the wait
// group of their goroutines.
type Carriers struct {
	free []FreeList[Carrier, *Carrier]

	mu  sync.Mutex // guards all
	all []*Carrier
	wg  sync.WaitGroup
}

// NewCarriers returns a pool with the given number of free lists.
func NewCarriers(lists int) *Carriers {
	return &Carriers{free: make([]FreeList[Carrier, *Carrier], lists)}
}

// Launch starts r on an idle carrier from free list `list` (a fresh
// goroutine when it is empty) and posts pid to it. Launches from one
// list must be serialized: it belongs to whoever holds the processor,
// or the machine, doing the launch.
func (p *Carriers) Launch(list int, r Rider, pid int) {
	c := p.free[list].Pop()
	if c == nil {
		c = &Carrier{mailbox: make(chan int, 1)}
		p.mu.Lock()
		p.all = append(p.all, c)
		p.mu.Unlock()
		p.wg.Add(1)
		go c.run(&p.wg)
	}
	c.rider = r
	c.Post(pid)
}

// Put returns c to free list `list`. Its goroutine must be on its way
// back to the mailbox receive and must no longer read c.rider.
func (p *Carriers) Put(list int, c *Carrier) { p.free[list].Push(c) }

// Started reports how many carrier goroutines the pool has launched.
func (p *Carriers) Started() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all)
}

// Shutdown unwinds every carrier goroutine and waits for them. The
// caller guarantees that no thread holds a processor and, since every
// post carries one, that no mailbox holds a post: each carrier, idle or
// carrying a parked thread, is in its mailbox receive or on its way
// there. One poison post each therefore unwinds them all and can
// neither block nor overflow. Threads that never ran have no carrier
// and need no post.
func (p *Carriers) Shutdown() {
	p.mu.Lock()
	all := p.all
	p.mu.Unlock()
	for _, c := range all {
		c.Post(PoisonPid)
	}
	p.wg.Wait()
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
