package sched

import (
	"fmt"
	"testing"

	"spthreads/internal/core"
)

// newADF and newShard build the production stores the differential
// suites drive.
func newADF() *orderedPolicy { return newOrdered(ADF, 1, 0) }

func newShard(procs, window int) *orderedPolicy { return newOrdered(ADFShard, procs, window) }

// Live returns the number of created, not exited threads.
func (p *orderedPolicy) Live() int { return p.live }

// ReadyCount returns the number of ready threads across all shards.
func (p *orderedPolicy) ReadyCount() (n int) {
	for i := range p.shards {
		n += p.shards[i].Len()
	}
	return n
}

// readyItems returns every ready thread, shard by shard.
func (p *orderedPolicy) readyItems() (all []*core.Thread) {
	for i := range p.shards {
		all = append(all, p.shards[i].Items()...)
	}
	return all
}

// TestReadyStoreAllocatesNothing: once its deques have grown, the store
// allocates nothing to fork, ready, block, dispatch or exit a thread,
// under all four orders and at one and four processors (four shards
// for adf-shard, whose dispatches then steal too). The cycle runs a
// fresh depth-3 binary fork tree over reused thread tokens, so no
// label outgrows its inline word (a DePa spine chunk every 64 forks is
// core.DepaLabel's cost, not the store's).
func TestReadyStoreAllocatesNothing(t *testing.T) {
	const depth = 3
	for _, kind := range []Kind{FIFO, LIFO, ADF, ADFShard} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/p%d", kind, procs), func(t *testing.T) {
				p := newOrdered(kind, procs, 0)
				var pool [1 << (depth + 1)]core.Thread
				var left, level [len(pool)]int // forks still to make, tree depth
				var yielded [len(pool)]bool
				cycle := func() {
					n, pid := 0, 0
					spawn := func(d int) *core.Thread {
						c := &pool[n]
						*c = core.Thread{ID: int64(n + 1)}
						left[n], level[n], yielded[n] = 0, d, false
						if d < depth {
							left[n] = 2
						}
						n++
						return c
					}
					p.OnCreate(nil, spawn(0))
					for {
						pid = (pid + 1) % procs
						th := p.Next(pid)
						if th == nil {
							break
						}
						for {
							i := th.ID - 1
							if left[i] > 0 {
								left[i]--
								if c := spawn(level[i] + 1); p.OnCreate(th, c) {
									p.OnReady(th, pid) // preempted for its child
									th = c
								}
								continue
							}
							if !yielded[i] {
								// Block and wake once, then give the processor up.
								yielded[i] = true
								p.OnBlock(th)
								p.OnReady(th, pid)
								break
							}
							p.OnExit(th)
							break
						}
					}
					if n != len(pool)-1 || p.Live() != 0 {
						t.Fatalf("cycle ran %d threads, %d live at its end", n, p.Live())
					}
				}
				if got := testing.AllocsPerRun(50, cycle); got != 0 {
					t.Errorf("%.1f allocations per %d-thread cycle, want 0", got, len(pool)-1)
				}
			})
		}
	}
}
