package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"streambalance/internal/spsc"
)

// In-process shared-memory transport: the second implementation of the
// BatchSender/BatchReceiver edge, for PEs co-located in one process. Where
// the TCP path serializes every tuple into frames and crosses the kernel
// twice, this path moves Tuple values through a bounded lock-free SPSC ring
// (spsc.Ring, the same structure as the merger's ingest lanes) with no
// serialization. Payload bytes never move: payload slices and their
// pooled-block references transfer by ownership, producer to consumer, and
// stay valid until the final consumer releases them. What a hop does cost is
// the 72-byte Tuple value written twice — from the caller's batch into its
// ring slot (deliver), from the slot into the receiver's dst (pop) — and one
// cursor store per side per batch, not per tuple. The sender stages nothing:
// a batch goes from the caller's slice straight into the ring's free slots.
//
// What is deliberately identical to TCP is the blocking signal. A full ring
// is this transport's full socket buffer: the sender elects to block — it
// parks (spsc.Parker) until the consumer frees a slot — and times the wait
// into the same cumulative blocking counter the paper's Section 3
// accounting defines, so core.Balancer drives goroutine replicas exactly as
// it drives TCP connections. Beard & Chamberlain's observation that the
// blocking-time signal survives transport changes is what makes this a
// drop-in: the controller differences TotalBlocking readings and never
// learns which transport produced them.
//
// Concurrency contract (same as the TCP pair): one goroutine sends, one
// goroutine receives; Close on either end may come from any goroutine and
// unblocks the other side.

// ErrInprocClosed is returned by sends after the receiving end closed and by
// receives after the receiver itself closed. A sender closing cleanly
// surfaces to the receiver as io.EOF once the ring drains, mirroring a TCP
// peer's clean shutdown.
var ErrInprocClosed = errors.New("transport: in-proc pipe closed")

// errInprocStall reports a send stall bound firing (see SetStallTimeout).
var errInprocStall = errors.New("transport: in-proc send stalled: receiver not draining")

// DefaultInprocRing bounds an in-proc pipe when the caller passes a
// non-positive capacity. It matches DefaultMergerRing: roughly the tuple
// count a default TCP socket buffer absorbs, so the blocking signal has the
// same granularity on both transports.
const DefaultInprocRing = 1024

// inprocItem is one ring slot: the tuple plus the upstream block reference
// (or nil for GC-owned payloads) whose ownership transfers with the push.
type inprocItem struct {
	t   Tuple
	ref *BlockRef
}

// inprocPipe is the state shared by a connected sender/receiver pair.
type inprocPipe struct {
	ring *spsc.Ring[inprocItem]

	// sendClosed: the sender closed cleanly (receiver drains then sees EOF).
	// recvClosed: the receiver closed (sends fail). Both are one-way latches.
	sendClosed atomic.Bool
	recvClosed atomic.Bool

	// popMu serializes consumption: ReceiveBatch pops under it, and so does
	// the teardown sweep that releases leftover block references after the
	// receiver closes — from the receiver's Close, or from the sender when
	// it discovers the close raced a push. One uncontended acquisition
	// per received batch; never touched per tuple.
	popMu sync.Mutex

	sendPark spsc.Parker // sender parks here while the ring is full
	recvPark spsc.Parker // receiver parks here while the ring is empty
}

// drainAndRelease sweeps every item still in the ring, releasing its block
// reference. Only meaningful once recvClosed is set: the receiver no longer
// pops, so the sweep (under popMu) is the sole consumer.
func (p *inprocPipe) drainAndRelease() {
	p.popMu.Lock()
	for {
		it, ok := p.ring.Pop()
		if !ok {
			break
		}
		it.ref.Release()
	}
	p.popMu.Unlock()
	p.sendPark.Wake()
}

// InprocPair creates a connected in-process sender/receiver pair over a
// bounded SPSC ring of at least capacity tuples (rounded up to a power of
// two, minimum 2; non-positive selects DefaultInprocRing). The ring bound is
// this edge's "socket buffer": it is what makes the sender block, which is
// what the balancer measures.
func InprocPair(capacity int) (*InprocSender, *InprocReceiver) {
	if capacity <= 0 {
		capacity = DefaultInprocRing
	}
	p := &inprocPipe{ring: spsc.NewRing[inprocItem](capacity)}
	return &InprocSender{p: p, now: time.Now}, &InprocReceiver{p: p}
}

// InprocSender is the producing end of an in-process edge. It mirrors the
// TCP Sender's surface and accounting; see BatchSender.
type InprocSender struct {
	p *inprocPipe

	// Stall bound (SetStallTimeout): the timer is allocated once and
	// re-armed per park episode, so a bounded sender parks allocation-free.
	stall      time.Duration
	stallTimer *time.Timer
	stallFired atomic.Bool

	edgeCounters

	// now is replaceable for tests.
	now func() time.Time
}

// Capacity returns the pipe's true (rounded) ring capacity in tuples.
func (s *InprocSender) Capacity() int { return s.p.ring.Cap() }

// checkFrameable applies the TCP path's frame-size and encodability bounds
// so an unencodable tuple fails identically on both transports (SendBatch
// atomicity included).
func checkFrameable(t Tuple) error {
	extra, _, err := frameExtra(t)
	if err != nil {
		return err
	}
	if body := 8 + extra + len(t.Payload); body > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	return nil
}

// Send is a batch of one through SendBatch, so the tuple is its own flush and
// its own elect-to-block episode.
func (s *InprocSender) Send(t Tuple) error {
	ts := [1]Tuple{t}
	return s.SendBatchOwned(ts[:], nil)
}

// SendBatch delivers ts as one batch, failing atomically on an unencodable
// tuple exactly as the TCP sender does: nothing from ts is sent. Payloads are
// referenced, not copied — they must not be mutated once delivered.
func (s *InprocSender) SendBatch(ts []Tuple) error {
	return s.SendBatchOwned(ts, nil)
}

// SendBatchOwned delivers ts with ownership transfer: ref holds one block
// reference per tuple and every reference is consumed — delivered tuples
// carry theirs to the consumer (pooled payload blocks cross the edge with no
// serialization), the rest are released here. The batch is validated, then
// written straight into the ring's free slots (deliver). On error the
// undelivered remainder is discarded, as on TCP: the edge is failed.
func (s *InprocSender) SendBatchOwned(ts []Tuple, ref *BlockRef) error {
	for i := range ts {
		if err := checkFrameable(ts[i]); err != nil {
			ref.ReleaseN(len(ts))
			return fmt.Errorf("transport: batch tuple seq %d: %w", ts[i].Seq, err)
		}
	}
	if len(ts) == 0 {
		return nil
	}
	if err := s.deliver(ts, ref); err != nil {
		return fmt.Errorf("transport: flush batch of %d: %w", len(ts), err)
	}
	s.sent.Add(int64(len(ts)))
	s.flushes.Add(1)
	return nil
}

// fillSlots writes ts[:len(slots)] (or all of ts, if fewer) into ring slots,
// each with ref, and returns how many it wrote.
func fillSlots(slots []inprocItem, ts []Tuple, ref *BlockRef) int {
	n := min(len(slots), len(ts))
	for i := range n {
		slots[i].t, slots[i].ref = ts[i], ref // field-wise: no temporary item
	}
	return n
}

// deliver writes ts, in order, into the ring's free slots and publishes each
// chunk with one cursor store, parking when no slot is free. On error the
// references of undelivered tuples are released (published tuples'
// references belong to the consumer already). The consumer is woken before
// any park — the tuples already published may be exactly what it is waiting
// for — and once after the last publish.
func (s *InprocSender) deliver(ts []Tuple, ref *BlockRef) error {
	p := s.p
	published := false
	for i := 0; i < len(ts); {
		err := s.closedErr()
		if err == nil {
			a, b := p.ring.Free()
			n := fillSlots(a, ts[i:], ref)
			n += fillSlots(b, ts[i+n:], ref)
			if n > 0 {
				p.ring.Publish(n)
				i += n
				published = true
				continue
			}
		}
		if published {
			p.recvPark.Wake()
			published = false
		}
		if err == nil {
			err = s.parkFull()
		}
		if err != nil {
			ref.ReleaseN(len(ts) - i)
			s.sweepIfAbandoned()
			return err
		}
	}
	if published {
		p.recvPark.Wake()
	}
	s.sweepIfAbandoned()
	return nil
}

// sweepIfAbandoned closes the publish/close race: if the receiver closed
// while a chunk was in flight, its teardown sweep may have run before the
// chunk landed, so the sender re-runs the sweep (idempotent, under popMu) on
// every way out of deliver to guarantee no reference is stranded in the ring.
func (s *InprocSender) sweepIfAbandoned() {
	if s.p.recvClosed.Load() {
		s.p.drainAndRelease()
	}
}

// closedErr reports why sending is impossible, if it is.
func (s *InprocSender) closedErr() error {
	if s.p.recvClosed.Load() || s.p.sendClosed.Load() {
		return ErrInprocClosed
	}
	return nil
}

// parkFull is the elect-to-block: the ring (this edge's socket buffer) is
// full, so the sender records a block event, parks until the consumer frees
// a slot — or the pipe closes, or the stall bound fires — and accounts the
// parked time to the cumulative counter the controller samples.
func (s *InprocSender) parkFull() error {
	p := s.p
	s.blockEvents.Add(1)
	start := s.now()
	if s.stall > 0 {
		s.armStall()
	}
	p.sendPark.Park(func() bool {
		return p.ring.Full() && !p.recvClosed.Load() && !p.sendClosed.Load() &&
			!s.stallFired.Load()
	})
	s.addBlocked(s.now().Sub(start))
	if s.stall > 0 {
		s.stallTimer.Stop()
		if s.stallFired.Swap(false) && p.ring.Full() && s.closedErr() == nil {
			return errInprocStall
		}
	}
	return nil
}

// SetStallTimeout bounds how long one delivery may stay parked on a ring the
// receiver is not draining (0 disables; negative is treated as 0) —
// the in-proc analogue of the TCP sender's rolling write deadline. Call from
// the sending goroutine (or before it starts).
func (s *InprocSender) SetStallTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.stall = d
}

// armStall re-arms the reusable stall timer for one park episode.
func (s *InprocSender) armStall() {
	if s.stallTimer == nil {
		s.stallTimer = time.AfterFunc(s.stall, func() {
			s.stallFired.Store(true)
			s.p.sendPark.Wake()
		})
		return
	}
	s.stallTimer.Reset(s.stall)
}

// Close ends the sending side: a parked delivery (local or on the peer)
// wakes, and once the receiver drains the ring it sees io.EOF — the clean
// shutdown a TCP close delivers. Idempotent; callable from any goroutine.
func (s *InprocSender) Close() error {
	if s.p.sendClosed.Swap(true) {
		return nil
	}
	s.p.recvPark.Wake()
	s.p.sendPark.Wake()
	if s.p.recvClosed.Load() {
		// Both ends are now closed: nobody will pop again, so sweep any
		// leftover references out of the ring.
		s.p.drainAndRelease()
	}
	return nil
}

// InprocReceiver is the consuming end of an in-process edge; see
// BatchReceiver. Tuples come out exactly as they went in — same Seq, same
// payload bytes by reference — with a batch BlockRef chaining the upstream
// references (BlockRef.parents), so consumers release per tuple exactly as
// they do on the TCP path.
type InprocReceiver struct {
	p *inprocPipe
}

// Capacity returns the pipe's true (rounded) ring capacity in tuples.
func (r *InprocReceiver) Capacity() int { return r.p.ring.Cap() }

// Len reports the ring's current occupancy (approximate while the sender is
// active).
func (r *InprocReceiver) Len() int { return r.p.ring.Len() }

// ReceiveBatch pops up to max tuples into dst (truncated and reused),
// blocking only while the ring is empty: once one tuple is available the
// pass drains what is already there and returns. max <= 0 selects
// DefaultRecvBatch. The returned BlockRef holds one reference per tuple and
// chains the tuples' upstream references; it is nil when every payload in
// the batch is GC-owned (no release needed, nil is a valid no-op receiver).
// Errors: io.EOF after the sender closed and the ring drained;
// ErrInprocClosed after this receiver closed.
func (r *InprocReceiver) ReceiveBatch(dst []Tuple, max int) ([]Tuple, *BlockRef, error) {
	if max <= 0 {
		max = DefaultRecvBatch
	}
	dst = dst[:0]
	p := r.p
	for {
		if p.recvClosed.Load() {
			return dst, nil, ErrInprocClosed
		}
		var ref *BlockRef
		dst, ref = r.pop(dst, max)
		if len(dst) > 0 {
			p.sendPark.Wake()
			return dst, ref, nil
		}
		if p.sendClosed.Load() && p.ring.Len() == 0 {
			return dst, nil, io.EOF
		}
		p.recvPark.Park(func() bool {
			return p.ring.Len() == 0 && !p.sendClosed.Load() && !p.recvClosed.Load()
		})
	}
}

// pop reads up to max published slots in place under popMu — the tuple is
// copied once, slot to dst — aggregating the slots' upstream references into
// one batch ref: the batch ref takes one countable reference per returned
// tuple, and recycling it (when the consumer has released them all) releases
// each chained parent exactly once — so per-tuple release semantics survive
// the aggregation. No slots with upstream references means no batch ref at
// all. dst arrives empty.
func (r *InprocReceiver) pop(dst []Tuple, max int) ([]Tuple, *BlockRef) {
	p := r.p
	var ref *BlockRef
	p.popMu.Lock()
	a, b := p.ring.Ready()
	for _, span := range [2][]inprocItem{a, b} {
		span = span[:min(len(span), max-len(dst))]
		for i := range span {
			dst = append(dst, span[i].t)
			if up := span[i].ref; up != nil {
				if ref == nil {
					ref = blockRefPool.Get().(*BlockRef)
				}
				ref.parents = append(ref.parents, up)
			}
		}
	}
	p.ring.Release(len(dst))
	p.popMu.Unlock()
	if ref != nil {
		ref.refs.Store(int64(len(dst)))
	}
	return dst, ref
}

// Close ends the receiving side: a parked ReceiveBatch returns
// ErrInprocClosed, a parked or future send fails, and every reference still
// in the ring is swept and released. Idempotent; callable from any
// goroutine.
func (r *InprocReceiver) Close() error {
	if r.p.recvClosed.Swap(true) {
		return nil
	}
	r.p.recvPark.Wake()
	r.p.drainAndRelease()
	return nil
}
