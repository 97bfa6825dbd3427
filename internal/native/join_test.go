package native

// A small-scope model check of the join word (api.go): exit and two
// joiners of one target run as goroutines gated one join-word step at
// a time through joinStep, and modelcheck.Explore enumerates every
// interleaving of their steps. Each participant runs the shipped
// transition functions, publishExit and claimJoin; only the scheduling
// of their loads and CASes is the explorer's.

import (
	"strings"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/modelcheck"
	"spthreads/internal/vtime"
)

// TestJoinWordModel enumerates every interleaving of an exit and two
// joiners on one join word and checks each: exactly one joiner joins,
// either on the fast path or readied by exit, never both and never
// neither; the other is refused as "already has a joiner" or "already
// joined"; a fast-path joiner reads the published exitedSpan; and the
// word ends joinedMark. Both orders of join against exit must occur.
func TestJoinWordModel(t *testing.T) {
	defer func() { joinStep = nil }()
	fastJoins, parkedJoins := 0, 0
	refusals := map[string]int{}
	runs := modelcheck.Explore(t, func(s *modelcheck.Sched) ([]func(), func()) {
		// Exit is participant 0, the joiners 1 and 2.
		b := &Backend{}
		target := &thread{b: b, span: 42}
		joiners := [2]*thread{{b: b, state: core.StateRunning}, {b: b, state: core.StateRunning}}
		actor := map[*thread]int{target: 0, joiners[0]: 1, joiners[1]: 2}
		joinStep = func(a *thread) { s.Step(actor[a], nil) }
		var (
			readied *thread           // the joiner exit returned for readying
			parked  [2]bool           // joiner i registered and must park
			errs    [2]error          // joiner i's refusal
			seen    [2]vtime.Duration // exitedSpan as joiner i read it on its fast path
		)
		bodies := []func(){func() { readied = target.publishExit() }}
		for i := range joiners {
			bodies = append(bodies, func() {
				parked[i], _, errs[i] = b.claimJoin(joiners[i], target)
				if !parked[i] && errs[i] == nil {
					seen[i] = target.exitedSpan
				}
			})
		}
		return bodies, func() {
			joins := 0
			for i := range parked {
				fast := !parked[i] && errs[i] == nil
				switch {
				case parked[i] && readied != joiners[i]:
					t.Errorf("steps %v: joiner %d parked and was never readied", s.Order, i+1)
				case fast && readied != nil:
					t.Errorf("steps %v: joiner %d took the fast path and exit readied a joiner too", s.Order, i+1)
				case fast && seen[i] != 42:
					t.Errorf("steps %v: joiner %d read exitedSpan %v before exit published it", s.Order, i+1, seen[i])
				case !parked[i] && joiners[i].state != core.StateRunning:
					t.Errorf("steps %v: joiner %d did not park but is left %v", s.Order, i+1, joiners[i].state)
				}
				if errs[i] == nil {
					joins++
					if fast {
						fastJoins++
					} else {
						parkedJoins++
					}
					continue
				}
				msg := errs[i].Error()
				switch {
				case strings.Contains(msg, "already has a joiner"):
					refusals["already has a joiner"]++
				case strings.Contains(msg, "already joined"):
					refusals["already joined"]++
				default:
					t.Errorf("steps %v: joiner %d refused with %q", s.Order, i+1, msg)
				}
			}
			if joins != 1 {
				t.Errorf("steps %v: %d joiners joined, want exactly 1", s.Order, joins)
			}
			if w := target.join.Load(); w != joinedMark {
				t.Errorf("steps %v: join word ends %p, want joinedMark", s.Order, w)
			}
		}
	})
	t.Logf("%d interleavings: %d fast-path joins, %d parked joins, refusals %v", runs, fastJoins, parkedJoins, refusals)
	if fastJoins == 0 || parkedJoins == 0 {
		t.Errorf("%d fast-path and %d parked joins: want both orders of join against exit", fastJoins, parkedJoins)
	}
	if len(refusals) != 2 {
		t.Errorf("refusals %v: want both kinds", refusals)
	}
}
