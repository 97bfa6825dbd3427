package native

// A small-scope model check of the join word (api.go): exit and two
// joiners of one target run as goroutines gated one join-word step at
// a time through joinStep, and the explorer enumerates every
// interleaving of their steps, in the manner of a stateless model
// checker (CHESS, Musuvathi et al., OSDI 2008). Each participant runs
// the shipped transition functions, publishExit and claimJoin; only the
// scheduling of their loads and CASes is the explorer's.

import (
	"strings"
	"testing"

	"spthreads/internal/core"
	"spthreads/internal/vtime"
)

// joinOutcome is one interleaving's result.
type joinOutcome struct {
	joiners [2]*thread
	readied *thread           // the joiner exit returned for readying
	parked  [2]bool           // joiner i registered and must park
	errs    [2]error          // joiner i's refusal
	seen    [2]vtime.Duration // exitedSpan as joiner i read it on its fast path
	word    *thread           // the join word once all three are done
	order   []int             // the participant of each step taken
}

// runJoinModel runs exit (participant 0) and joiners 1 and 2 against
// one target, granting steps in the order prefix gives and then always
// to the lowest-numbered waiting participant. It returns the outcome
// and, for each step, the participants that were waiting to take it.
func runJoinModel(t *testing.T, prefix []int) (joinOutcome, [][]int) {
	b := &Backend{}
	target := &thread{b: b, span: 42}
	joiners := [2]*thread{{b: b, state: core.StateRunning}, {b: b, state: core.StateRunning}}
	actor := map[*thread]int{target: 0, joiners[0]: 1, joiners[1]: 2}
	var arrive [3]chan bool // true: waiting at a step; false: done
	var grant [3]chan struct{}
	for i := range arrive {
		arrive[i], grant[i] = make(chan bool), make(chan struct{})
	}
	joinStep = func(a *thread) {
		i := actor[a]
		arrive[i] <- true
		<-grant[i]
	}
	defer func() { joinStep = nil }()

	out := joinOutcome{joiners: joiners}
	bodies := [3]func(){
		func() { out.readied = target.publishExit() },
	}
	for i := range joiners {
		bodies[i+1] = func() {
			parked, _, err := b.claimJoin(joiners[i], target)
			out.parked[i], out.errs[i] = parked, err
			if !parked && err == nil {
				out.seen[i] = target.exitedSpan
			}
		}
	}
	var waiting [3]bool
	for i, f := range bodies { // each runs up to its first step before the next starts
		go func() {
			f()
			arrive[i] <- false
		}()
		waiting[i] = <-arrive[i]
	}
	var enabled [][]int
	for k := 0; ; k++ {
		var en []int
		for i, w := range waiting {
			if w {
				en = append(en, i)
			}
		}
		if len(en) == 0 {
			break
		}
		c := en[0]
		if k < len(prefix) {
			c = prefix[k]
		}
		if !waiting[c] {
			t.Fatalf("schedule %v: participant %d is not waiting at step %d", prefix, c, k)
		}
		out.order = append(out.order, c)
		enabled = append(enabled, en)
		grant[c] <- struct{}{}
		waiting[c] = <-arrive[c]
	}
	out.word = target.join.Load()
	return out, enabled
}

// TestJoinWordModel enumerates every interleaving of an exit and two
// joiners on one join word and checks each: exactly one joiner joins,
// either on the fast path or readied by exit, never both and never
// neither; the other is refused as "already has a joiner" or "already
// joined"; a fast-path joiner reads the published exitedSpan; and the
// word ends joinedMark. Both orders of join against exit must occur.
func TestJoinWordModel(t *testing.T) {
	var prefix []int
	runs, fastJoins, parkedJoins := 0, 0, 0
	refusals := map[string]int{}
	for {
		out, enabled := runJoinModel(t, prefix)
		runs++
		joins := 0
		for i := range out.parked {
			fast := !out.parked[i] && out.errs[i] == nil
			readied := out.readied == out.joiners[i]
			switch {
			case out.parked[i] && !readied:
				t.Errorf("steps %v: joiner %d parked and was never readied", out.order, i+1)
			case fast && out.readied != nil:
				t.Errorf("steps %v: joiner %d took the fast path and exit readied a joiner too", out.order, i+1)
			case fast && out.seen[i] != 42:
				t.Errorf("steps %v: joiner %d read exitedSpan %v before exit published it", out.order, i+1, out.seen[i])
			case !out.parked[i] && out.joiners[i].state != core.StateRunning:
				t.Errorf("steps %v: joiner %d did not park but is left %v", out.order, i+1, out.joiners[i].state)
			}
			if out.errs[i] == nil {
				joins++
				if fast {
					fastJoins++
				} else {
					parkedJoins++
				}
				continue
			}
			msg := out.errs[i].Error()
			switch {
			case strings.Contains(msg, "already has a joiner"):
				refusals["already has a joiner"]++
			case strings.Contains(msg, "already joined"):
				refusals["already joined"]++
			default:
				t.Errorf("steps %v: joiner %d refused with %q", out.order, i+1, msg)
			}
		}
		if joins != 1 {
			t.Errorf("steps %v: %d joiners joined, want exactly 1", out.order, joins)
		}
		if out.word != joinedMark {
			t.Errorf("steps %v: join word ends %p, want joinedMark", out.order, out.word)
		}
		if t.Failed() {
			return
		}
		// Backtrack: the deepest step with a waiting participant above
		// the one granted there is the next schedule's last choice.
		prefix = nil
		for k := len(out.order) - 1; k >= 0 && prefix == nil; k-- {
			for _, c := range enabled[k] {
				if c > out.order[k] {
					prefix = append(append([]int(nil), out.order[:k]...), c)
					break
				}
			}
		}
		if prefix == nil {
			break
		}
	}
	t.Logf("%d interleavings: %d fast-path joins, %d parked joins, refusals %v", runs, fastJoins, parkedJoins, refusals)
	if fastJoins == 0 || parkedJoins == 0 {
		t.Errorf("%d fast-path and %d parked joins: want both orders of join against exit", fastJoins, parkedJoins)
	}
	if len(refusals) != 2 {
		t.Errorf("refusals %v: want both kinds", refusals)
	}
}
