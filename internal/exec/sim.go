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
// simulated thread runs at a time, so the two never overlap. A child
// that ran first may have exited and had its record recycled by then,
// so the returned pointer is used only when the child has not run.
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

// Block / wake primitives: each forwards to the machine's.

func (s *Sim) SyncOp(t Thread, op string, c core.SyncCost) { s.m.SyncOp(sim(t), op, c) }
func (s *Sim) Pause(t Thread)                              { s.m.Pause(sim(t)) }
func (s *Sim) BlockPrep(Thread)                            {}
func (s *Sim) Park(t Thread)                               { s.m.Park(sim(t)) }
func (s *Sim) Wake(by, w Thread)                           { s.m.Wake(sim(by), sim(w)) }
func (s *Sim) Spin(t Thread, burst int)                    { s.m.Spin(sim(t), burst) }
func (s *Sim) LockStamp(t Thread) int64                    { return s.m.LockStamp(sim(t)) }
func (s *Sim) LockAcquired(t Thread, stamp int64)          { s.m.LockAcquired(sim(t), stamp) }

// WakeAfter implements Backend. A signal leaves the sleeper entry in
// place for claim to void, so there is nothing to disarm.
func (s *Sim) WakeAfter(t Thread, d vtime.Duration, claim func() bool) func() {
	s.m.WakeAfter(sim(t), d, claim)
	return nil
}

// JoinSpans implements Backend: t first takes the longest span, then
// hands it to every party.
func (s *Sim) JoinSpans(t Thread, ws []Thread) {
	th := sim(t)
	for _, w := range ws {
		th.JoinSpan(sim(w))
	}
	for _, w := range ws {
		sim(w).JoinSpan(th)
	}
}
