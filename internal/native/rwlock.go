package native

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"spthreads/internal/exec"
)

// nativeRWMutex is a writer-preferring readers-writer lock: once a
// writer is queued, new readers block behind it so writers cannot
// starve under a steady reader stream.
type nativeRWMutex struct {
	b       *Backend
	mu      sync.Mutex
	readers int
	writer  *thread
	waitR   []*thread
	waitW   []*thread
}

func (rw *nativeRWMutex) RLock(pt exec.Thread) {
	t := nt(pt)
	rw.mu.Lock()
	if rw.writer == nil && len(rw.waitW) == 0 {
		rw.readers++
		rw.mu.Unlock()
		return
	}
	rw.b.blockPrep(t)
	rw.waitR = append(rw.waitR, t)
	rw.mu.Unlock()
	t.blockPark()
	// The releaser counted us among readers before waking us.
}

func (rw *nativeRWMutex) RUnlock(pt exec.Thread) {
	t := nt(pt)
	rw.mu.Lock()
	if rw.readers <= 0 {
		rw.mu.Unlock()
		panic(fmt.Sprintf("native: %s read-unlocking an rwlock with no readers", t.Name()))
	}
	rw.readers--
	if rw.readers > 0 || len(rw.waitW) == 0 {
		rw.mu.Unlock()
		return
	}
	w := rw.waitW[0]
	copy(rw.waitW, rw.waitW[1:])
	rw.waitW = rw.waitW[:len(rw.waitW)-1]
	rw.writer = w
	rw.mu.Unlock()
	rw.b.readyThread(w, t.pid)
}

func (rw *nativeRWMutex) WLock(pt exec.Thread) {
	t := nt(pt)
	rw.mu.Lock()
	if rw.writer == t {
		rw.mu.Unlock()
		panic(fmt.Sprintf("native: %s write-locking an rwlock it already holds", t.Name()))
	}
	if rw.writer == nil && rw.readers == 0 && len(rw.waitW) == 0 {
		rw.writer = t
		rw.mu.Unlock()
		return
	}
	rw.b.blockPrep(t)
	rw.waitW = append(rw.waitW, t)
	rw.mu.Unlock()
	t.blockPark()
}

func (rw *nativeRWMutex) WUnlock(pt exec.Thread) {
	t := nt(pt)
	rw.mu.Lock()
	if rw.writer != t {
		rw.mu.Unlock()
		panic(fmt.Sprintf("native: %s write-unlocking an rwlock it does not hold", t.Name()))
	}
	rw.writer = nil
	if len(rw.waitW) > 0 {
		w := rw.waitW[0]
		copy(rw.waitW, rw.waitW[1:])
		rw.waitW = rw.waitW[:len(rw.waitW)-1]
		rw.writer = w
		rw.mu.Unlock()
		rw.b.readyThread(w, t.pid)
		return
	}
	released := rw.waitR
	rw.waitR = nil
	rw.readers += len(released)
	rw.mu.Unlock()
	for _, r := range released {
		rw.b.readyThread(r, t.pid)
	}
}

func (b *Backend) NewRWMutex() exec.RWMutex { return &nativeRWMutex{b: b} }

// nativeSpinLock spins on an atomic flag. Unlike the simulator, spins
// here burn real CPU; the loop yields the OS scheduler every iteration
// and, every spinPreemptEvery failed attempts, preempts the holder's
// worker through the scheduler so the lock holder can run even when
// workers outnumber CPUs (essential when GOMAXPROCS is small).
type nativeSpinLock struct {
	b     *Backend
	held  atomic.Bool
	spins atomic.Int64
}

const spinPreemptEvery = 64

func (sl *nativeSpinLock) Acquire(pt exec.Thread) {
	t := nt(pt)
	if sl.held.CompareAndSwap(false, true) {
		return
	}
	n := 0
	for {
		sl.spins.Add(1)
		n++
		if sl.held.CompareAndSwap(false, true) {
			return
		}
		if n%spinPreemptEvery == 0 {
			sl.b.preemptNow(t)
		} else {
			runtime.Gosched()
		}
	}
}

func (sl *nativeSpinLock) Release(pt exec.Thread) {
	if !sl.held.CompareAndSwap(true, false) {
		panic("native: releasing a spinlock that is not held")
	}
}

func (sl *nativeSpinLock) Spins() int64 { return sl.spins.Load() }

func (b *Backend) NewSpinLock() exec.SpinLock { return &nativeSpinLock{b: b} }
