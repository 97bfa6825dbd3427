package exec

import (
	"spthreads/internal/core"
	"spthreads/internal/vtime"
)

// Sim is the simulated-machine backend: a thin adapter over
// core.Machine. Every method forwards directly to the machine entry
// point it mirrors, so a program run through Sim is byte-for-byte
// identical — in schedule, virtual time, and stats — to one run on the
// machine directly (the determinism goldens pin this down).
type Sim struct {
	m *core.Machine
}

// NewSim builds the simulated backend from a machine configuration.
func NewSim(cfg core.Config) (*Sim, error) {
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{m: m}, nil
}

// Name implements Backend.
func (s *Sim) Name() string { return "sim" }

// simThread wraps a core.Thread as an exec.Thread.
type simThread struct {
	th *core.Thread
}

func (t *simThread) ID() int64    { return t.th.ID }
func (t *simThread) Name() string { return t.th.Name() }

func (t *simThread) TLSGet(key any) any {
	if t.th.TLS == nil {
		return nil
	}
	return t.th.TLS[key]
}

func (t *simThread) TLSSet(key, val any) {
	if t.th.TLS == nil {
		t.th.TLS = make(map[any]any)
	}
	t.th.TLS[key] = val
}

// sim unwraps an exec.Thread back to the machine's representation.
func sim(t Thread) *core.Thread { return t.(*simThread).th }

// Execute implements Backend.
func (s *Sim) Execute(main func(Thread)) (core.Stats, error) {
	return s.m.Execute(func(th *core.Thread) {
		main(&simThread{th: th})
	})
}

// Fork implements Backend. Under the paper's fork semantics the child
// runs before the machine's Fork returns, so the child is bound by
// whichever comes first, its first run or that return; exactly one
// simulated thread runs at a time, so the two never overlap.
func (s *Sim) Fork(t Thread, attr core.Attr, body Body) Thread {
	c := &simChild{body: body}
	return c.bind(s.m.Fork(sim(t), attr, c))
}

// simChild is a forked thread's wrapper, handed to its Body's Bind once,
// and the machine's core.Body for the child.
type simChild struct {
	body Body
	st   simThread
}

// Run implements core.Body.
func (c *simChild) Run(th *core.Thread) { c.body.Run(c.bind(th)) }

func (c *simChild) bind(th *core.Thread) *simThread {
	if c.st.th == nil {
		c.st.th = th
		c.body.Bind(&c.st)
	}
	return &c.st
}

// Join implements Backend.
func (s *Sim) Join(t Thread, target Thread) error {
	return s.m.Join(sim(t), sim(target))
}

func (s *Sim) Exit(t Thread)                       { s.m.Exit(sim(t)) }
func (s *Sim) Yield(t Thread)                      { s.m.Yield(sim(t)) }
func (s *Sim) Charge(t Thread, cycles int64)       { s.m.Charge(sim(t), cycles) }
func (s *Sim) Malloc(t Thread, n int64) core.Alloc { return s.m.Malloc(sim(t), n) }
func (s *Sim) Free(t Thread, a core.Alloc)         { s.m.Free(sim(t), a) }
func (s *Sim) Touch(t Thread, a core.Alloc, off, n int64) {
	s.m.Touch(sim(t), a, off, n)
}
func (s *Sim) Prefault(t Thread, a core.Alloc)  { s.m.Prefault(sim(t), a) }
func (s *Sim) Sleep(t Thread, d vtime.Duration) { s.m.Sleep(sim(t), d) }
func (s *Sim) Now(t Thread) vtime.Time          { return s.m.Now(sim(t)) }

// Synchronization objects: each wraps the corresponding core object and
// dispatches through the machine with the unwrapped thread.

type simMutex struct {
	s  *Sim
	mu core.Mutex
}

func (m *simMutex) Lock(t Thread)         { m.s.m.Lock(sim(t), &m.mu) }
func (m *simMutex) TryLock(t Thread) bool { return m.s.m.TryLock(sim(t), &m.mu) }
func (m *simMutex) Unlock(t Thread)       { m.s.m.Unlock(sim(t), &m.mu) }

func (s *Sim) NewMutex() Mutex { return &simMutex{s: s} }

type simCond struct {
	s *Sim
	c core.Cond
}

func (c *simCond) Wait(t Thread, mu Mutex) {
	c.s.m.Wait(sim(t), &c.c, &mu.(*simMutex).mu)
}

func (c *simCond) WaitTimeout(t Thread, mu Mutex, d vtime.Duration) bool {
	return c.s.m.WaitTimeout(sim(t), &c.c, &mu.(*simMutex).mu, d)
}

func (c *simCond) Signal(t Thread)    { c.s.m.Signal(sim(t), &c.c) }
func (c *simCond) Broadcast(t Thread) { c.s.m.Broadcast(sim(t), &c.c) }

func (s *Sim) NewCond() Cond { return &simCond{s: s} }

type simRWMutex struct {
	s  *Sim
	rw core.RWMutex
}

func (l *simRWMutex) RLock(t Thread)   { l.s.m.RLock(sim(t), &l.rw) }
func (l *simRWMutex) RUnlock(t Thread) { l.s.m.RUnlock(sim(t), &l.rw) }
func (l *simRWMutex) WLock(t Thread)   { l.s.m.WLock(sim(t), &l.rw) }
func (l *simRWMutex) WUnlock(t Thread) { l.s.m.WUnlock(sim(t), &l.rw) }

func (s *Sim) NewRWMutex() RWMutex { return &simRWMutex{s: s} }

type simSpinLock struct {
	s  *Sim
	sl core.SpinLock
}

func (l *simSpinLock) Acquire(t Thread) { l.s.m.SpinAcquire(sim(t), &l.sl) }
func (l *simSpinLock) Release(t Thread) { l.s.m.SpinRelease(sim(t), &l.sl) }
func (l *simSpinLock) Spins() int64     { return l.sl.Spins() }

func (s *Sim) NewSpinLock() SpinLock { return &simSpinLock{s: s} }

type simSemaphore struct {
	s   *Sim
	sem *core.Semaphore
}

func (sm *simSemaphore) Wait(t Thread) { sm.s.m.SemWait(sim(t), sm.sem) }
func (sm *simSemaphore) Post(t Thread) { sm.s.m.SemPost(sim(t), sm.sem) }
func (sm *simSemaphore) Value() int64  { return sm.sem.SemValue() }

func (s *Sim) NewSemaphore(n int64) Semaphore {
	return &simSemaphore{s: s, sem: core.NewSemaphore(n)}
}

type simBarrier struct {
	s *Sim
	b *core.Barrier
}

func (br *simBarrier) Wait(t Thread) bool { return br.s.m.BarrierWait(sim(t), br.b) }

func (s *Sim) NewBarrier(n int) Barrier {
	return &simBarrier{s: s, b: core.NewBarrier(n)}
}

type simOnce struct {
	s *Sim
	o core.Once
}

func (o *simOnce) Do(t Thread, fn func()) { o.s.m.OnceDo(sim(t), &o.o, fn) }

func (s *Sim) NewOnce() Once { return &simOnce{s: s} }
