package runtime

import "streambalance/internal/transport"

// mergeItem is one queued tuple plus the BlockRef of the receive block its
// payload aliases. The ref travels with the tuple through the reorder queue
// and is released exactly once per item: after the sink
// returns when the item is released in order, or at the point an item is
// dropped as a duplicate (read-time dedup, the stale-head sweep, or
// teardown). A zero ref means the payload is not pool-backed (tests feed
// the queues directly) and release is a no-op.
type mergeItem struct {
	t   transport.Tuple
	ref *transport.BlockRef
}

// seqHeap is a binary min-heap of tuples ordered by sequence number — the
// merger's per-connection reorder queue. The previous implementation kept a
// sorted slice with O(n) insertion: cheap in the in-order common case, but a
// replay burst after a worker failure inserts old sequence numbers near the
// front of queues up to queueCap deep, and Prasaad et al. ("Scaling Ordered
// Stream Processing on Shared-Memory Multicores") observe the ordered merge
// structure itself becoming the bottleneck at scale — exactly where that
// O(n) shuffle sat, inside the merger lock. The heap makes every enqueue
// O(log n) worst case and O(1) on the in-order fast path (a new maximum
// never swaps with its parent), with O(log n) release.
//
// Unlike the sorted slice, the heap admits duplicate sequence numbers
// (membership testing would tax the fast path). Duplicates are dropped
// lazily: exactly one copy of each sequence is released, and every surplus
// copy is counted at read time (if it arrives below the released watermark)
// or by the merge loop's stale-head sweep (once the watermark passes it), so
// the dedup accounting matches the eager implementation — the equivalence
// test in merger_equiv_test.go pins this against the old insertSorted.
type seqHeap []mergeItem

// head returns the minimum-sequence item without removing it.
func (h seqHeap) head() (mergeItem, bool) {
	if len(h) == 0 {
		return mergeItem{}, false
	}
	return h[0], true
}

// push adds an item: O(1) when t.Seq is a new maximum (a worker's own
// stream arrives in order), O(log n) otherwise.
func (h *seqHeap) push(it mergeItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].t.Seq <= q[i].t.Seq {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	*h = q
}

// streamQueue is one stream's reorder buffer: an ascending FIFO run for the
// common case plus a seqHeap spill for out-of-order arrivals. A worker's
// stream reaches the merger almost sorted — it processes the splitter's
// assignments in order — so nearly every item lands on the FIFO with an O(1)
// append and leaves with an O(1) head advance. Only disorder (replay bursts
// after a failure, a tuple behind a survivor's backlog) pays the heap's
// O(log n): under the old always-heap queue, a pop on a queue-capacity-deep
// backlog did ~2·log n cache-missing 40-byte swap writes per released tuple,
// which became the merge loop's dominant cost once ingest went lock-free.
//
// Like seqHeap, duplicates are admitted and swept lazily by the caller; the
// FIFO/heap split never reorders equal sequence numbers in a way the release
// discipline can observe (every surplus copy of a sequence is swept, exactly
// one copy releases).
type streamQueue struct {
	fifo []mergeItem // ascending run; fifo[fh:] are live
	fh   int         // index of the FIFO head within fifo
	heap seqHeap     // out-of-order spill
}

// push admits one item: FIFO when it keeps the run ascending, heap spill
// otherwise.
func (q *streamQueue) push(it mergeItem) {
	if n := len(q.fifo); n == q.fh {
		// Empty run: restart at the front of the backing array.
		q.fifo = append(q.fifo[:0], it)
		q.fh = 0
		return
	} else if it.t.Seq >= q.fifo[n-1].t.Seq {
		q.fifo = append(q.fifo, it)
		return
	}
	q.heap.push(it)
}

// headKey returns the minimum queued sequence, or headIndexEmpty when the
// stream has nothing buffered.
func (q *streamQueue) headKey() uint64 {
	hasF := q.fh < len(q.fifo)
	hasH := len(q.heap) > 0
	switch {
	case hasF && hasH:
		if h := q.heap[0].t.Seq; h < q.fifo[q.fh].t.Seq {
			return h
		}
		return q.fifo[q.fh].t.Seq
	case hasF:
		return q.fifo[q.fh].t.Seq
	case hasH:
		return q.heap[0].t.Seq
	}
	return headIndexEmpty
}

// popMin removes and returns the minimum-sequence item. Vacated FIFO slots
// are zeroed so the run does not pin released payloads or their block refs;
// the dead prefix is compacted away once it dominates the backing array, so
// a run that never fully drains cannot grow it without bound.
func (q *streamQueue) popMin() mergeItem {
	hasH := len(q.heap) > 0
	if q.fh < len(q.fifo) && (!hasH || q.fifo[q.fh].t.Seq <= q.heap[0].t.Seq) {
		it := q.fifo[q.fh]
		q.fifo[q.fh] = mergeItem{}
		q.fh++
		if q.fh == len(q.fifo) {
			q.fifo = q.fifo[:0]
			q.fh = 0
		} else if q.fh > 32 && q.fh >= len(q.fifo)-q.fh {
			n := copy(q.fifo, q.fifo[q.fh:])
			clearTail := q.fifo[n:]
			for i := range clearTail {
				clearTail[i] = mergeItem{}
			}
			q.fifo = q.fifo[:n]
			q.fh = 0
		}
		return it
	}
	return q.heap.popMin()
}

// len is the stream's buffered item count.
func (q *streamQueue) len() int {
	return len(q.fifo) - q.fh + len(q.heap)
}

// popMin removes and returns the minimum-sequence item. The vacated slot is
// zeroed so the heap does not pin released payloads or their block refs.
func (h *seqHeap) popMin() mergeItem {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = mergeItem{}
	q = q[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(q) && q[l].t.Seq < q[min].t.Seq {
			min = l
		}
		if r < len(q) && q[r].t.Seq < q[min].t.Seq {
			min = r
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}
