// Package modelcheck enumerates every interleaving of a few goroutines
// gated one shared-memory step at a time, as a stateless model checker
// does (CHESS, Musuvathi et al., OSDI 2008).
package modelcheck

import (
	"slices"
	"testing"
)

// Sched gates one interleaving's participants. ch[p] carries p's next
// step's enabled test to the explorer (nil once p is done), then the
// grant back to p.
type Sched struct {
	ch    []chan func() bool
	Order []int // the participant of each step taken
}

// Step blocks participant p until its next step is granted. enabled, if
// not nil, reports whether the step can be taken yet (a lock acquired,
// a park woken); it is called only while every participant is stopped.
func (s *Sched) Step(p int, enabled func() bool) {
	if enabled == nil {
		enabled = func() bool { return true }
	}
	s.ch[p] <- enabled
	<-s.ch[p]
}

// Explore calls start once per interleaving and returns their number.
// start returns the participants' bodies, which call Step before each
// step, and a check to run once they have returned. Each body runs to
// its first step before the next starts.
func Explore(t testing.TB, start func(s *Sched) (bodies []func(), check func())) int {
	var prefix []int
	for runs := 1; ; runs++ {
		s := &Sched{}
		bodies, check := start(s)
		s.ch = make([]chan func() bool, len(bodies))
		waiting := make([]func() bool, len(bodies))
		for i, f := range bodies {
			s.ch[i] = make(chan func() bool)
			go func() { f(); s.ch[i] <- nil }()
			waiting[i] = <-s.ch[i]
		}
		var enabled [][]int
		for k := 0; slices.ContainsFunc(waiting, func(w func() bool) bool { return w != nil }); k++ {
			var en []int
			for i, w := range waiting {
				if w != nil && w() {
					en = append(en, i)
				}
			}
			if len(en) == 0 {
				t.Fatalf("steps %v: participants remain but none can step", s.Order)
			}
			c := en[0]
			if k < len(prefix) {
				c = prefix[k] // a replay takes the same steps, so c is enabled
			}
			s.Order, enabled = append(s.Order, c), append(enabled, en)
			s.ch[c] <- nil
			waiting[c] = <-s.ch[c]
		}
		if check(); t.Failed() {
			return runs
		}
		// Backtrack to the deepest step where a higher participant could
		// have stepped instead.
		for prefix = nil; prefix == nil && len(enabled) > 0; enabled = enabled[:len(enabled)-1] {
			k := len(enabled) - 1
			if i := slices.IndexFunc(enabled[k], func(c int) bool { return c > s.Order[k] }); i >= 0 {
				prefix = append(s.Order[:k:k], enabled[k][i])
			}
		}
		if prefix == nil {
			return runs
		}
	}
}
