package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span kinds: one per call the benchmark's programs wrap.
type spanKind uint8

const (
	spanProgram spanKind = iota // one pthread.Run of one program
	spanBody                    // a thread's function, start to return
	spanCreate
	spanJoin
	spanMalloc
	spanMallocPreempt // the Malloc that exhausts the thread's quota
	spanMallocDummy   // a Malloc above K: dummy threads fork first
	spanFree
	spanMutexLock
	spanCondWait
	spanCondHandoff // item stamped at put, read at get
	spanSemWait
	spanBarrierWait
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"program", "body", "create", "join", "malloc", "malloc_preempt",
	"malloc_dummy", "free", "mutex_lock", "cond_wait", "cond_handoff",
	"sem_wait", "barrier_wait",
}

// span is one wrapped call. Times are nanoseconds since the recorder's
// base; parent is the id of the span that caused this one (0 for none).
// A join span also carries, in link, the id of the create span that
// forked the thread it joins.
type span struct {
	kind       spanKind
	thread     uint32
	run, prog  uint32 // pass number and program index: ids are unique within one
	start, end int64
	id, parent uint64
	link       uint64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder collects the spans of one repetition. Every program thread
// appends to its own slice (index = the program's own thread number),
// so recording takes no lock; the slices are merged when the rep ends.
type recorder struct {
	base    time.Time
	run     uint32
	prog    uint32 // index of the program now running
	threads [][]span
	seq     []uint64 // per thread: spans recorded through addSeq so far
}

func newRecorder(run uint32, threads int) *recorder {
	return &recorder{base: time.Now(), run: run, threads: make([][]span, threads), seq: make([]uint64, threads)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// spanID is unique per (thread, slot): programs give each wrapped call
// of a thread a fixed slot number from 1 up, so no id is 0.
func spanID(thread uint32, slot uint8) uint64 { return uint64(thread)<<8 | uint64(slot) }

// add records a finished span on thread's own slice.
func (r *recorder) add(thread uint32, kind spanKind, slot uint8, parent uint64, start, end int64) {
	r.threads[thread] = append(r.threads[thread], span{
		kind: kind, thread: thread, run: r.run, prog: r.prog, start: start, end: end,
		id: spanID(thread, slot), parent: parent,
	})
}

// addJoin records a join span; created is the slot of the create span
// (on the same thread) that forked the thread joined.
func (r *recorder) addJoin(thread uint32, slot, created uint8, parent uint64, start, end int64) {
	r.add(thread, spanJoin, slot, parent, start, end)
	r.threads[thread][len(r.threads[thread])-1].link = spanID(thread, created)
}

// addSeq records a span whose id only needs to be unique, for threads
// that make an unbounded number of calls (syncpipe).
func (r *recorder) addSeq(thread uint32, kind spanKind, parent uint64, start, end int64) {
	r.seq[thread]++
	r.threads[thread] = append(r.threads[thread], span{
		kind: kind, thread: thread, run: r.run, prog: r.prog, start: start, end: end,
		id: 1<<50 | uint64(thread)<<32 | r.seq[thread], parent: parent,
	})
}

// take returns every span recorded since the last take, ordered by
// start time, and empties the per-thread slices for the next program.
func (r *recorder) take() []span {
	n := 0
	for _, t := range r.threads {
		n += len(t)
	}
	all := make([]span, 0, n)
	for i, t := range r.threads {
		all = append(all, t...)
		r.threads[i] = nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	return all
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may nest, overlap
// each other, or stick out of the parent (under ADF a create span ends
// when the parent is resumed, which can be before or after the child's
// body ends); only the covered part inside the parent is subtracted.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(k.start, edge), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.id] = s.dur() - covered
	}
	return self
}

// writeSpans writes spans as JSON lines to dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create span directory: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"id":%d,"parent":%d,"link":%d,"run":%d,"program":%d,"thread":%d}`+"\n",
			spanNames[s.kind], s.start, s.end, s.id, s.parent, s.link, s.run, s.prog, s.thread)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close span file: %w", err)
	}
	return path, nil
}
