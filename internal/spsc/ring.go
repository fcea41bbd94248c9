// Package spsc holds the one hand-off structure every hop of the region's
// data path reuses: a bounded lock-free single-producer single-consumer
// ring, and the parker its two sides sleep on when the ring is full or
// empty. The in-process transport's edges (transport.InprocPair) and the
// merger's per-connection ingest lanes are both instances; they differ only
// in the slot type. Prasaad et al. (PAPERS.md) make the case for exactly
// this shape in ordered multicore pipelines: one small non-blocking
// structure between stages, no lock on the item path.
package spsc

import "sync/atomic"

// Ring is a bounded lock-free single-producer single-consumer FIFO. Neither
// side ever takes a lock: the only shared state is the head and tail
// cursors, advanced with atomic stores whose sequential consistency gives the
// cross-goroutine happens-before the race detector (and the memory model)
// require for the slot contents.
//
// Ownership of whatever a slot carries (the data path's slots carry a
// *transport.BlockRef) follows the slot: the producer owns it until Push
// returns true, then the consumer does. Pop zeroes the vacated slot so a ring
// never pins memory for items already handed over.
//
// Capacity is rounded up to a power of two so the cursors can run free
// (monotonically increasing uint64) and slot indexing is a mask.
type Ring[T any] struct {
	mask uint64
	buf  []T

	// The cursors live on separate cache lines: head is written by the
	// consumer at pop rate, tail by the producer at push rate, and sharing
	// a line would turn every advance into cross-core ping-pong.
	_    [64]byte
	head atomic.Uint64 // next slot to pop; advanced only by the consumer
	_    [64]byte
	tail atomic.Uint64 // next slot to fill; advanced only by the producer
	_    [64]byte
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

// Push appends one item. Producer-only. Returns false when the ring is full;
// the caller still owns the item in that case.
func (r *Ring[T]) Push(it T) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = it
	r.tail.Store(t + 1) // publishes the slot write to the consumer
	return true
}

// Pop removes the oldest item, zeroing the vacated slot. Consumer-only.
// The slot is cleared with *new(T), which compiles to an in-place zeroing;
// assigning a `var zero T` costs the instantiations two extra slot-sized
// copies per pop.
func (r *Ring[T]) Pop() (it T, ok bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return it, false
	}
	slot := &r.buf[h&r.mask]
	it = *slot
	*slot = *new(T)
	r.head.Store(h + 1) // returns the slot to the producer
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
