package core

import "spthreads/internal/vtime"

// contention models serialization on one lock-protected resource
// (scheduler queue, heap allocator) without a hard availability ratchet:
// operations landing in the same virtual-time window queue up behind
// each other, so contention scales with the temporal density of
// operations rather than with the bounded clock divergence between
// processors.
//
// The counts sit in a slice indexed from a moving base window. Pruning
// moves the base up to just below the slowest processor's window, and
// clocks never go back, so no operation lands below it. The slice spans
// every window from there to the newest operation, so it grows with the
// clock divergence: while an idle processor holds the base through a
// serial phase, by 4 B per window the busy one crosses (160 KB per
// virtual second at 25 us), and past 2^14 windows each operation also
// pays Machine.prune's O(p) clock scan.
type contention struct {
	opCost vtime.Duration
	window vtime.Duration
	base   int64   // window of ops[0]
	ops    []int32 // ops[i]: operations so far in window base+i
}

func newContention(opCost, window vtime.Duration) *contention {
	return &contention{opCost: opCost, window: window}
}

// wait returns the queueing delay for an operation at virtual time now
// and records the operation.
func (c *contention) wait(now vtime.Time) vtime.Duration {
	i := int(int64(now)/int64(c.window) - c.base)
	if i < 0 {
		return 0 // a pruned window counts as empty
	}
	for len(c.ops) <= i {
		c.ops = append(c.ops, 0)
	}
	n := c.ops[i]
	c.ops[i] = n + 1
	if n == 0 {
		return 0
	}
	d := vtime.Duration(n) * c.opCost
	if d > c.window {
		d = c.window
	}
	return d
}

// prune drops windows strictly older than the horizon time.
func (c *contention) prune(horizon vtime.Time) {
	cutoff := int64(horizon)/int64(c.window) - 1
	if d := cutoff - c.base; d > 0 {
		c.ops = c.ops[:copy(c.ops, c.ops[min(d, int64(len(c.ops))):])]
		c.base = cutoff
	}
}

// size is the number of windows held, empty ones between the base and
// the newest included.
func (c *contention) size() int { return len(c.ops) }
