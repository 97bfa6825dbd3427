// Package sched implements the ready-thread scheduling policies studied
// in the paper: the original Solaris FIFO queue, the LIFO modification,
// the space-efficient ADF scheduler (the paper's contribution), and a
// Cilk-style work-stealing baseline used for the space-bound ablation.
//
// Policies satisfy core.Policy and are invoked with the machine
// serialized; they keep no locks. Scheduler-lock *costs* for the
// global-queue policies are modeled by the machine (Policy.Global).
// Policies only order threads: which of them throttle allocation, and
// by how much, is Kind.Quota.
package sched

import (
	"fmt"

	"spthreads/internal/core"
	"spthreads/internal/metrics"
)

// Kind selects a policy by name.
type Kind string

// Supported policy kinds.
const (
	FIFO Kind = "fifo" // original Solaris SCHED_OTHER queue
	LIFO Kind = "lifo" // LIFO modification (paper §4 item 1)
	ADF  Kind = "adf"  // space-efficient scheduler (paper §4 item 2), DePa-labeled dispatch
	WS   Kind = "ws"   // Cilk-style work stealing (related-work baseline)
	DFD  Kind = "dfd"  // simplified DFDeques: space efficiency + locality (paper §6 future work)

	// ADFShard is the ADF policy over per-processor ready shards with
	// bounded-deviation work stealing: each processor dispatches from its
	// own DePa-ordered heap and steals only threads within StealWindow of
	// the global leftmost-ready position, so the scheduler lock stops
	// being a global serial point while the S1 + c·p·D envelope degrades
	// gracefully with the window instead of vanishing.
	ADFShard Kind = "adf-shard"
)

// Options carries policy-specific parameters.
type Options struct {
	// Procs is the processor count (required by WS for its deques).
	Procs int
	// StealWindow is ADFShard's deviation bound K: a steal is accepted
	// only if at most K ready threads precede the stolen thread in the
	// serial depth-first order. <= 0 selects the default, Procs.
	StealWindow int
	// Metrics, when non-nil, attaches policy-internal instruments
	// (ADF's placeholder-list length, the stealing policies' steal
	// counts) to the registry.
	Metrics *metrics.Registry
}

// New constructs a policy of the given kind.
func New(kind Kind, opt Options) (core.Policy, error) {
	if opt.Procs <= 0 {
		opt.Procs = 1
	}
	switch kind {
	case FIFO:
		return newFIFO(), nil
	case LIFO:
		return newLIFO(), nil
	case ADF:
		p := newADF()
		if opt.Metrics != nil {
			p.attachMetrics(opt.Metrics)
		}
		return p, nil
	case ADFShard:
		p := newShard(opt.Procs, opt.StealWindow)
		if opt.Metrics != nil {
			p.attachMetrics(opt.Metrics)
		}
		return p, nil
	case WS:
		p := newWS(opt.Procs)
		if opt.Metrics != nil {
			p.attachMetrics(opt.Metrics)
		}
		return p, nil
	case DFD:
		return newDFD(opt.Procs), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", kind)
	}
}

// Quota is the one rule of which policies throttle allocation: adf,
// adf-shard and dfd run under the space-efficient scheduler's memory
// discipline, with K = bytes (0: core.DefaultMemQuota) and dummy threads
// unless disableDummies; fifo, lifo and ws run under none, so either
// setting is an error for them, as is an unknown kind.
func (k Kind) Quota(bytes int64, disableDummies bool) (core.Quota, error) {
	switch k {
	case ADF, ADFShard, DFD:
		if bytes == 0 {
			bytes = core.DefaultMemQuota
		}
		return core.Quota{K: bytes, Dummies: !disableDummies}, nil
	case FIFO, LIFO, WS:
		if bytes != 0 || disableDummies {
			return core.Quota{}, fmt.Errorf("sched: policy %q applies no memory quota: MemQuota and DisableDummies require adf, adf-shard or dfd", k)
		}
		return core.Quota{}, nil
	}
	return core.Quota{}, fmt.Errorf("sched: unknown policy %q", k)
}

// MustNew is New for static configurations.
func MustNew(kind Kind, opt Options) core.Policy {
	p, err := New(kind, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// Kinds lists every policy kind.
func Kinds() []Kind { return []Kind{FIFO, LIFO, ADF, ADFShard, WS, DFD} }
