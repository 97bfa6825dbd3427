// Package sched implements the ready-thread scheduling policies studied
// in the paper: the original Solaris FIFO queue, the LIFO modification,
// the space-efficient ADF scheduler (the paper's contribution), and a
// Cilk-style work-stealing baseline used for the space-bound ablation.
//
// Policies satisfy core.Policy and are invoked with the machine
// serialized; they keep no locks. Scheduler-lock *costs* for the
// global-queue policies are modeled by the machine (Policy.Global).
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
	// MemQuota is ADF's per-schedule allocation quota K in bytes
	// (default 128 KB). Ignored by other policies.
	MemQuota int64
	// DisableDummies turns off ADF's dummy-thread throttling (for the
	// abl-dummy ablation).
	DisableDummies bool
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

// DefaultMemQuota is ADF's default K.
const DefaultMemQuota int64 = 128 << 10

// New constructs a policy of the given kind.
func New(kind Kind, opt Options) (core.Policy, error) {
	switch kind {
	case FIFO:
		return newFIFO(), nil
	case LIFO:
		return newLIFO(), nil
	case ADF:
		k := opt.MemQuota
		if k == 0 {
			k = DefaultMemQuota
		}
		p := newADF(k, opt.DisableDummies)
		if opt.Metrics != nil {
			p.attachMetrics(opt.Metrics)
		}
		return p, nil
	case ADFShard:
		k := opt.MemQuota
		if k == 0 {
			k = DefaultMemQuota
		}
		p := newShard(opt.Procs, opt.StealWindow, k, opt.DisableDummies)
		if opt.Metrics != nil {
			p.attachMetrics(opt.Metrics)
		}
		return p, nil
	case WS:
		if opt.Procs <= 0 {
			opt.Procs = 1
		}
		p := newWS(opt.Procs)
		if opt.Metrics != nil {
			p.attachMetrics(opt.Metrics)
		}
		return p, nil
	case DFD:
		if opt.Procs <= 0 {
			opt.Procs = 1
		}
		k := opt.MemQuota
		if k == 0 {
			k = DefaultMemQuota
		}
		return newDFD(opt.Procs, k, opt.DisableDummies), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", kind)
	}
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
