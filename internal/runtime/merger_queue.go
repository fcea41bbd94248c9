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

// seqHeap is a binary min-heap of items ordered by sequence number: the
// reorder queue's spill for out-of-order arrivals. A sorted slice paid O(n)
// per insert when a replay burst landed near the front of a deep queue, the
// ordered-merge bottleneck Prasaad et al. ("Scaling Ordered Stream Processing
// on Shared-Memory Multicores") describe; the heap is O(log n) both ways and
// O(1) to push a new maximum. It admits duplicate sequence numbers, which
// are dropped lazily: exactly one copy of each sequence is released, and
// every surplus copy is counted at read time (below the watermark on
// arrival) or by the merge loop's stale-head sweep, so the dedup accounting
// matches an eager queue (merger_equiv_test.go pins it against insertSorted).
type seqHeap []mergeItem

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
// common case plus a seqHeap spill for disorder (replay bursts after a
// failure, a tuple behind a survivor's backlog). A worker's stream arrives
// almost sorted, so nearly every item lands on the FIFO with an O(1) append,
// and the merge loop releases whole runs from the FIFO slots in place
// (releaseRuns); a run that is in order on arrival skips the queue
// altogether (drainRings). Duplicates are admitted and swept lazily by the
// caller, and exactly one copy of each sequence releases.
type streamQueue struct {
	fifo []mergeItem // ascending run; fifo[fh:] are live
	fh   int         // index of the FIFO head within fifo; 0 when the run is empty
	heap seqHeap     // out-of-order spill
}

// push admits one item: FIFO when it keeps the run ascending, heap spill
// otherwise.
func (q *streamQueue) push(it mergeItem) {
	if n := len(q.fifo); n == q.fh || it.t.Seq >= q.fifo[n-1].t.Seq {
		q.fifo = append(q.fifo, it)
		return
	}
	q.heap.push(it)
}

// fifoKey and heapKey return the FIFO's and the spill's lowest sequence, or
// headIndexEmpty when that part is empty; headKey is the lower of the two.
func (q *streamQueue) fifoKey() uint64 {
	if q.fh < len(q.fifo) {
		return q.fifo[q.fh].t.Seq
	}
	return headIndexEmpty
}

func (q *streamQueue) heapKey() uint64 {
	if len(q.heap) > 0 {
		return q.heap[0].t.Seq
	}
	return headIndexEmpty
}

func (q *streamQueue) headKey() uint64 { return min(q.fifoKey(), q.heapKey()) }

// popMin removes and returns the minimum-sequence item, the FIFO's on a tie.
// Vacated FIFO slots are zeroed so the run does not pin released payloads or
// their block refs.
func (q *streamQueue) popMin() mergeItem {
	if q.fh < len(q.fifo) && q.fifo[q.fh].t.Seq <= q.heapKey() {
		it := q.fifo[q.fh]
		q.fifo[q.fh] = mergeItem{}
		q.fh++
		q.trim()
		return it
	}
	return q.heap.popMin()
}

// trim runs after FIFO slots below fh were consumed (and zeroed): an emptied
// run restarts at the front of its backing array, and a dead prefix is
// compacted away once it dominates the array, so a run that never fully
// drains cannot grow it without bound.
func (q *streamQueue) trim() {
	if q.fh == len(q.fifo) {
		q.fifo = q.fifo[:0]
		q.fh = 0
	} else if q.fh > 32 && q.fh >= len(q.fifo)-q.fh {
		n := copy(q.fifo, q.fifo[q.fh:])
		clear(q.fifo[n:])
		q.fifo = q.fifo[:n]
		q.fh = 0
	}
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
