package native

// Footprint accounting. Allocations are accounted, not performed: like
// the simulator's memsim, the backend tracks byte counts and high-water
// marks, so the ADF quota and the S1 + O(p·D) space bound act on the
// same quantities. One word is shared, Backend.total (live heap plus
// stack bytes), moved by one atomic Add per allocation or free. The rest
// are cells of the accounting worker (foot), written only on its
// processor and summed at stats time: its net heap and stack bytes
// (negative when it frees another worker's) with their marks, the
// highest total its own Adds returned, and the next name in its address
// range. Every value total held is some Add's result, so TotalHWM, the
// largest of those marks, is exactly total's peak. HeapHWM and StackHWM
// sum the per-worker marks, capped by TotalHWM: exact at one processor,
// upper bounds above it.
type foot struct {
	heap, stack, heapHWM, stackHWM, totalHWM int64
	nextAddr                                 int64
}

// addrRange is the span of each worker's block names: worker i names
// from 1<<12 + i*addrRange up.
const addrRange = 1 << 40

// accountStep, when set, runs between an account's shared Add and its
// mark, with the accounting worker.
var accountStep func(w *worker)

// account moves one of worker w's class cells by d bytes, lifting its
// mark, and total by one Add, lifting w's total mark to the Add's result.
func (b *Backend) account(w *worker, cell, mark *int64, d int64) {
	*cell += d
	*mark = max(*mark, *cell)
	countRMW()
	sum := b.total.Add(d)
	if accountStep != nil {
		accountStep(w)
	}
	w.totalHWM = max(w.totalHWM, sum)
}

// stackAlloc accounts n bytes of thread stack on w (n < 0 frees).
func (b *Backend) stackAlloc(w *worker, n int64) { b.account(w, &w.stack, &w.stackHWM, n) }

// malloc accounts an n-byte heap block on w and names it from w's range.
func (b *Backend) malloc(w *worker, n int64) (addr int64) {
	b.account(w, &w.heap, &w.heapHWM, n)
	addr = w.nextAddr
	w.nextAddr += n
	return addr
}
