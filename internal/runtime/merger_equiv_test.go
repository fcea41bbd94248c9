package runtime

import (
	"math/rand"
	"testing"

	"streambalance/internal/transport"
)

// insertSorted is the pre-heap reorder-queue insert — O(n) sorted-slice
// insertion with eager duplicate rejection — kept only as the reference
// implementation for the equivalence test below. It places t into q keeping
// ascending sequence order, reporting ok=false when the sequence is already
// queued.
func insertSorted(q []transport.Tuple, t transport.Tuple) ([]transport.Tuple, bool) {
	i := len(q)
	for i > 0 && q[i-1].Seq > t.Seq {
		i--
	}
	if i > 0 && q[i-1].Seq == t.Seq {
		return q, false
	}
	q = append(q, transport.Tuple{})
	copy(q[i+1:], q[i:])
	q[i] = t
	return q, true
}

// head returns the heap's minimum-sequence item without removing it.
func (h seqHeap) head() (mergeItem, bool) {
	if len(h) == 0 {
		return mergeItem{}, false
	}
	return h[0], true
}

// releaseRec records one released tuple: its sequence and which connection's
// queue released it (the attribution the sink sees).
type releaseRec struct {
	seq  uint64
	conn int
}

// mergeEngine is a single-threaded model of the merger's insert/release
// logic, parameterized by the reorder-queue implementation. Both engines run
// the merge loop's exact release discipline — sweep stale heads below the
// watermark, release the lowest-id queue whose head equals the watermark,
// restart — so feeding both the same arrival interleaving isolates the queue
// data structure as the only difference.
type mergeEngine struct {
	arrive func(conn int, t transport.Tuple)
	state  func() (rel []releaseRec, dedup int)
}

func newRefEngine(conns int) *mergeEngine {
	queues := make([][]transport.Tuple, conns)
	var next uint64
	var rel []releaseRec
	dedup := 0
	merge := func() {
		for {
			released := false
			for id := range queues {
				for len(queues[id]) > 0 && queues[id][0].Seq < next {
					queues[id] = queues[id][1:]
					dedup++
				}
				if len(queues[id]) > 0 && queues[id][0].Seq == next {
					rel = append(rel, releaseRec{queues[id][0].Seq, id})
					queues[id] = queues[id][1:]
					next++
					released = true
					break
				}
			}
			if !released {
				return
			}
		}
	}
	return &mergeEngine{
		arrive: func(conn int, t transport.Tuple) {
			if t.Seq < next {
				dedup++
			} else if q, ok := insertSorted(queues[conn], t); ok {
				queues[conn] = q
			} else {
				dedup++
			}
			merge()
		},
		state: func() ([]releaseRec, int) { return rel, dedup },
	}
}

func newHeapEngine(conns int) *mergeEngine {
	queues := make([]seqHeap, conns)
	var next uint64
	var rel []releaseRec
	dedup := 0
	merge := func() {
		for {
			released := false
			for id := range queues {
				for {
					h, ok := queues[id].head()
					if !ok || h.t.Seq >= next {
						break
					}
					queues[id].popMin()
					dedup++
				}
				if h, ok := queues[id].head(); ok && h.t.Seq == next {
					queues[id].popMin()
					rel = append(rel, releaseRec{h.t.Seq, id})
					next++
					released = true
					break
				}
			}
			if !released {
				return
			}
		}
	}
	return &mergeEngine{
		arrive: func(conn int, t transport.Tuple) {
			if t.Seq < next {
				dedup++
			} else {
				queues[conn].push(mergeItem{t: t})
			}
			merge()
		},
		state: func() ([]releaseRec, int) { return rel, dedup },
	}
}

// newBatchedEngine models the batch-ingest merger: arrivals accumulate in a
// per-connection pending buffer and are ingested whole — read-time dedup
// against the watermark, then heap pushes, then one merge sweep — when the
// buffer reaches that connection's batch size (randomized per engine,
// including 1, which degenerates to per-tuple ingest). flush must be called
// after the last arrival, exactly as a real reader drains its final partial
// batch at stream end.
type batchedEngine struct {
	*mergeEngine
	flush func()
}

func newBatchedEngine(conns int, batchSize func(conn int) int) *batchedEngine {
	queues := make([]seqHeap, conns)
	pending := make([][]transport.Tuple, conns)
	var next uint64
	var rel []releaseRec
	dedup := 0
	merge := func() {
		for {
			released := false
			for id := range queues {
				for {
					h, ok := queues[id].head()
					if !ok || h.t.Seq >= next {
						break
					}
					queues[id].popMin()
					dedup++
				}
				if h, ok := queues[id].head(); ok && h.t.Seq == next {
					queues[id].popMin()
					rel = append(rel, releaseRec{h.t.Seq, id})
					next++
					released = true
					break
				}
			}
			if !released {
				return
			}
		}
	}
	ingest := func(conn int) {
		for _, t := range pending[conn] {
			if t.Seq < next {
				dedup++
			} else {
				queues[conn].push(mergeItem{t: t})
			}
		}
		pending[conn] = pending[conn][:0]
		merge()
	}
	return &batchedEngine{
		mergeEngine: &mergeEngine{
			arrive: func(conn int, t transport.Tuple) {
				pending[conn] = append(pending[conn], t)
				if len(pending[conn]) >= batchSize(conn) {
					ingest(conn)
				}
			},
			state: func() ([]releaseRec, int) { return rel, dedup },
		},
		flush: func() {
			for conn := range pending {
				if len(pending[conn]) > 0 {
					ingest(conn)
				}
			}
		},
	}
}

// TestMergerQueueEquivalence feeds identical randomized arrival
// interleavings — including same-queue and cross-queue duplicates — to the
// old sorted-slice engine and the new heap engine, and requires the exact
// same released (seq, conn) sequence and the exact same duplicate count.
// This pins the heap's lazy duplicate handling to the eager reference: one
// copy of each sequence releases, every surplus copy is counted once.
func TestMergerQueueEquivalence(t *testing.T) {
	type ev struct {
		conn int
		t    transport.Tuple
	}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 17))
		conns := 1 + rng.Intn(6)
		n := 1 + rng.Intn(300)

		evs := make([]ev, 0, n*2)
		for seq := 0; seq < n; seq++ {
			evs = append(evs, ev{rng.Intn(conns), transport.Tuple{Seq: uint64(seq)}})
		}
		// Duplicate a random subset onto random connections at random
		// positions — before or after the original, same conn or another.
		dups := 0
		for seq := 0; seq < n; seq++ {
			if rng.Intn(4) != 0 {
				continue
			}
			dups++
			e := ev{rng.Intn(conns), transport.Tuple{Seq: uint64(seq)}}
			pos := rng.Intn(len(evs) + 1)
			evs = append(evs, ev{})
			copy(evs[pos+1:], evs[pos:])
			evs[pos] = e
		}

		ref := newRefEngine(conns)
		heap := newHeapEngine(conns)
		for _, e := range evs {
			ref.arrive(e.conn, e.t)
			heap.arrive(e.conn, e.t)
		}

		refRel, refDedup := ref.state()
		heapRel, heapDedup := heap.state()

		if len(refRel) != n {
			t.Fatalf("trial %d: reference released %d of %d", trial, len(refRel), n)
		}
		for i, r := range refRel {
			if r.seq != uint64(i) {
				t.Fatalf("trial %d: reference release %d has seq %d", trial, i, r.seq)
			}
		}
		if refDedup != dups {
			t.Fatalf("trial %d: reference deduped %d, injected %d", trial, refDedup, dups)
		}

		if len(heapRel) != len(refRel) {
			t.Fatalf("trial %d: heap released %d, reference %d", trial, len(heapRel), len(refRel))
		}
		for i := range refRel {
			if heapRel[i] != refRel[i] {
				t.Fatalf("trial %d: release %d diverges: heap %+v, reference %+v",
					trial, i, heapRel[i], refRel[i])
			}
		}
		if heapDedup != refDedup {
			t.Fatalf("trial %d: heap deduped %d, reference %d", trial, heapDedup, refDedup)
		}
	}
}

// TestMergerBatchIngestEquivalence runs the batch-ingest engine against the
// per-tuple reference on identical arrival interleavings with injected
// duplicates, across randomized per-connection batch sizes including 1.
// Batching delays when a tuple reaches its reorder queue, which may
// legitimately change *which connection* a duplicated sequence releases
// from — so unlike the queue-implementation equivalence above, the contract
// here is the externally observable one: every sequence 0..n-1 releases
// exactly once in order (gapless exactly-once), and the total duplicate
// count matches the reference exactly.
func TestMergerBatchIngestEquivalence(t *testing.T) {
	type ev struct {
		conn int
		t    transport.Tuple
	}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 31))
		conns := 1 + rng.Intn(6)
		n := 1 + rng.Intn(300)

		evs := make([]ev, 0, n*2)
		for seq := 0; seq < n; seq++ {
			evs = append(evs, ev{rng.Intn(conns), transport.Tuple{Seq: uint64(seq)}})
		}
		dups := 0
		for seq := 0; seq < n; seq++ {
			if rng.Intn(4) != 0 {
				continue
			}
			dups++
			e := ev{rng.Intn(conns), transport.Tuple{Seq: uint64(seq)}}
			pos := rng.Intn(len(evs) + 1)
			evs = append(evs, ev{})
			copy(evs[pos+1:], evs[pos:])
			evs[pos] = e
		}

		// Randomized batch size per connection, 1..64 with 1 forced into
		// rotation so the degenerate per-tuple case stays covered.
		sizes := make([]int, conns)
		for i := range sizes {
			if rng.Intn(5) == 0 {
				sizes[i] = 1
			} else {
				sizes[i] = 1 + rng.Intn(64)
			}
		}

		ref := newRefEngine(conns)
		batched := newBatchedEngine(conns, func(conn int) int { return sizes[conn] })
		for _, e := range evs {
			ref.arrive(e.conn, e.t)
			batched.arrive(e.conn, e.t)
		}
		batched.flush()

		refRel, refDedup := ref.state()
		batRel, batDedup := batched.state()

		if len(batRel) != n {
			t.Fatalf("trial %d (sizes %v): batched released %d of %d", trial, sizes, len(batRel), n)
		}
		for i, r := range batRel {
			if r.seq != uint64(i) {
				t.Fatalf("trial %d (sizes %v): release %d has seq %d, want %d",
					trial, sizes, i, r.seq, i)
			}
		}
		if len(refRel) != n {
			t.Fatalf("trial %d: reference released %d of %d", trial, len(refRel), n)
		}
		if batDedup != refDedup {
			t.Fatalf("trial %d (sizes %v): batched deduped %d, reference %d",
				trial, sizes, batDedup, refDedup)
		}
		if batDedup != dups {
			t.Fatalf("trial %d (sizes %v): deduped %d, injected %d", trial, sizes, batDedup, dups)
		}
	}
}

// TestSeqHeapOrdering exercises the heap directly: random pushes with
// duplicates must pop in non-decreasing sequence order, and head must always
// agree with the next pop.
func TestSeqHeapOrdering(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 101))
		var h seqHeap
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			h.push(mergeItem{t: transport.Tuple{Seq: uint64(rng.Intn(n))}})
		}
		var last uint64
		for i := 0; len(h) > 0; i++ {
			head, ok := h.head()
			if !ok {
				t.Fatal("head reported empty on non-empty heap")
			}
			got := h.popMin()
			if got.t.Seq != head.t.Seq {
				t.Fatalf("pop %d: head %d but popped %d", i, head.t.Seq, got.t.Seq)
			}
			if i > 0 && got.t.Seq < last {
				t.Fatalf("pop %d: %d after %d", i, got.t.Seq, last)
			}
			last = got.t.Seq
		}
	}
}
