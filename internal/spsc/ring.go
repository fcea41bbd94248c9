// Package spsc holds the one hand-off structure every hop of the region's
// data path reuses: a bounded lock-free single-producer single-consumer
// ring, and the parker its two sides sleep on when the ring is full or
// empty. The in-process transport's edges (transport.InprocPair) and the
// merger's per-connection ingest lanes are both instances; they differ only
// in the slot type. Prasaad et al. (PAPERS.md) make the case for exactly
// this shape in ordered multicore pipelines: one small non-blocking
// structure between stages, no lock on the item path, and batches — not
// items — as the unit of synchronisation. So the ring hands over spans of
// slots (Free/Publish, Ready/Release); Push and Pop are a span of one.
package spsc

import "sync/atomic"

// Ring is a bounded lock-free single-producer single-consumer FIFO. Neither
// side ever takes a lock: the only shared state is the head and tail
// cursors, advanced with atomic stores whose sequential consistency gives the
// cross-goroutine happens-before the race detector (and the memory model)
// require for the slot contents.
//
// Ownership of a slot — and of whatever it carries (a merger ingest lane's
// slot carries a *transport.BlockRef beside its tuple; an in-proc edge's slot
// is a bare tuple) — alternates: the producer's from the Release
// that returned it until a Publish covers it, the consumer's (it sees the
// slot in Ready) from then until its Release covers it. Release, not Pop, is
// what zeroes a vacated slot, so a ring never pins memory for items already
// handed over and Free only ever exposes zero slots. Filled slots must be
// published before the next Free: unpublished writes are not tracked.
//
// Capacity is rounded up to a power of two so the cursors can run free
// (monotonically increasing uint64) and slot indexing is a mask.
type Ring[T any] struct {
	mask uint64
	buf  []T

	// Each side's cursor shares a cache line with that side's private bound
	// (how much its last Free/Ready offered) and with nothing of the other
	// side's: head is written by the consumer, tail by the producer, and
	// sharing a line would turn every advance into cross-core ping-pong.
	_     [64]byte
	head  atomic.Uint64 // next slot to read; advanced only by Release
	ready uint64        // consumer-private: slots the last Ready offered, not yet released
	_     [64]byte
	tail  atomic.Uint64 // next slot to fill; advanced only by Publish
	free  uint64        // producer-private: slots the last Free offered, not yet published
	_     [64]byte
}

// NewRing allocates a ring holding at least capacity items (rounded up to a
// power of two, minimum 2; non-positive asks get the minimum rather than
// converting to a huge unsigned bound).
func NewRing[T any](capacity int) *Ring[T] {
	c := uint64(2)
	for c < uint64(max(capacity, 2)) {
		c <<= 1
	}
	return &Ring[T]{mask: c - 1, buf: make([]T, c)}
}

// Cap returns the ring's true (rounded) capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// spans returns the n slots starting at cursor from as at most two
// contiguous pieces of the buffer, a before b. a is empty only when n is 0.
func (r *Ring[T]) spans(from, n uint64) (a, b []T) {
	i := from & r.mask
	if wrap := uint64(len(r.buf)) - i; n > wrap {
		return r.buf[i:], r.buf[:n-wrap]
	}
	return r.buf[i : i+n], nil
}

// Free returns every slot the producer may fill right now, oldest first.
// Producer-only. The slots are zero; writing them is invisible to the
// consumer until Publish.
func (r *Ring[T]) Free() (a, b []T) {
	t := r.tail.Load()
	r.free = uint64(len(r.buf)) - (t - r.head.Load())
	return r.spans(t, r.free)
}

// Publish hands the first n slots of the last Free to the consumer with one
// cursor store. Producer-only. Publishing more than Free offered panics.
func (r *Ring[T]) Publish(n int) {
	if uint64(n) > r.free {
		panic("spsc: Publish beyond the last Free")
	}
	r.free -= uint64(n)
	r.tail.Store(r.tail.Load() + uint64(n)) // publishes the slot writes to the consumer
}

// Ready returns every published slot, oldest first, to be read in place.
// Consumer-only. The slots stay the consumer's until Release.
func (r *Ring[T]) Ready() (a, b []T) {
	h := r.head.Load()
	r.ready = r.tail.Load() - h
	return r.spans(h, r.ready)
}

// Release zeroes the first n slots of the last Ready and returns them to the
// producer with one cursor store. Consumer-only. Releasing more than Ready
// offered panics.
func (r *Ring[T]) Release(n int) {
	if uint64(n) > r.ready {
		panic("spsc: Release beyond the last Ready")
	}
	r.ready -= uint64(n)
	h := r.head.Load()
	a, b := r.spans(h, uint64(n))
	clear(a)
	clear(b)
	r.head.Store(h + uint64(n)) // returns the slots to the producer
}

// Push appends one item. Producer-only. Returns false when the ring is full;
// the caller still owns the item in that case.
func (r *Ring[T]) Push(it T) bool {
	a, _ := r.Free()
	if len(a) == 0 {
		return false
	}
	a[0] = it
	r.Publish(1)
	return true
}

// Pop removes the oldest item. Consumer-only.
func (r *Ring[T]) Pop() (it T, ok bool) {
	a, _ := r.Ready()
	if len(a) == 0 {
		return it, false
	}
	it = a[0]
	r.Release(1)
	return it, true
}

// Len reports the current occupancy. Callable from any goroutine; the two
// cursor loads are not a snapshot, so the result is approximate while the
// other side is active (exact from the producer, never above true occupancy
// from the consumer).
func (r *Ring[T]) Len() int {
	t := r.tail.Load()
	h := r.head.Load()
	if t < h {
		// The consumer advanced head between the two loads; the ring was
		// (momentarily) no fuller than empty.
		return 0
	}
	return int(t - h)
}

// Full reports whether a Push would fail right now. Producer-only (from the
// consumer it may answer a stale yes).
func (r *Ring[T]) Full() bool {
	return r.tail.Load()-r.head.Load() >= uint64(len(r.buf))
}
