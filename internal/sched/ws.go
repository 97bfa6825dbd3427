package sched

import (
	"math/rand"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
)

// wsPolicy is a Cilk-style work-stealing baseline: each processor owns a
// deque of ready threads; forks run the child immediately and push the
// parent on the bottom of the forking processor's deque; a processor out
// of local work steals from the top of a random victim's deque. Cilk
// guarantees p·S_1 space under this discipline, which the abl-ws
// experiment contrasts with ADF's S_1 + O(p·D).
//
// Priorities are ignored (the Cilk model has none); this is documented
// library behaviour for the ws policy.
type wsPolicy struct {
	deques []wsDeque
	rng    *rand.Rand
	total  int
	steals int64

	cSteal *metrics.Counter // sched.steal.count
}

// attachMetrics binds the steal counter to a registry, making the
// baseline's steal traffic observable next to adf-shard's.
func (p *wsPolicy) attachMetrics(r *metrics.Registry) {
	p.cSteal = r.Counter("sched.steal.count")
}

type wsDeque struct {
	a []*core.Thread
}

func (d *wsDeque) pushBottom(t *core.Thread) { d.a = append(d.a, t) }

func (d *wsDeque) popBottom() *core.Thread {
	if len(d.a) == 0 {
		return nil
	}
	t := d.a[len(d.a)-1]
	d.a[len(d.a)-1] = nil
	d.a = d.a[:len(d.a)-1]
	return t
}

func (d *wsDeque) popTop() *core.Thread {
	if len(d.a) == 0 {
		return nil
	}
	t := d.a[0]
	copy(d.a, d.a[1:])
	d.a[len(d.a)-1] = nil
	d.a = d.a[:len(d.a)-1]
	return t
}

// newWS seeds victim selection with a constant, so runs stay
// deterministic for a fixed configuration.
func newWS(procs int) *wsPolicy {
	return &wsPolicy{
		deques: make([]wsDeque, procs),
		rng:    rand.New(rand.NewSource(1)),
	}
}

func (p *wsPolicy) Name() string { return "ws" }
func (p *wsPolicy) Global() bool { return false }

func (p *wsPolicy) OnCreate(parent, child *core.Thread) bool {
	if parent == nil {
		p.deques[0].pushBottom(child)
		p.total++
		return false
	}
	// Child-first (work-first) discipline: run the child now; the
	// machine re-enters the parent via OnReady on the forking processor.
	return true
}

func (p *wsPolicy) OnReady(t *core.Thread, pid int) {
	if pid < 0 || pid >= len(p.deques) {
		pid = 0
	}
	p.deques[pid].pushBottom(t)
	p.total++
}

func (p *wsPolicy) OnBlock(*core.Thread) {}
func (p *wsPolicy) OnExit(*core.Thread)  {}

func (p *wsPolicy) Next(pid int) *core.Thread {
	if p.total == 0 {
		return nil
	}
	if t := p.deques[pid].popBottom(); t != nil {
		p.total--
		return t
	}
	n := len(p.deques)
	if n > 1 {
		// One random probe, then a deterministic sweep so that Next is
		// complete (it must find work whenever any deque has some).
		v := p.rng.Intn(n)
		for i := 0; i < n; i++ {
			victim := (v + i) % n
			if victim == pid {
				continue
			}
			if t := p.deques[victim].popTop(); t != nil {
				p.total--
				p.steals++
				p.cSteal.Inc()
				return t
			}
		}
	}
	return nil
}

// Steals returns the number of successful steals so far.
func (p *wsPolicy) Steals() int64 { return p.steals }
