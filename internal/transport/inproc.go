package transport

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"streambalance/internal/spsc"
)

// In-process shared-memory transport: the second implementation of the
// BatchSender/BatchReceiver edge, for PEs co-located in one process. Where
// the TCP path serializes every tuple into frames and crosses the kernel
// twice, this path moves Tuple values through a bounded lock-free SPSC ring
// (spsc.Ring, the same structure as the merger's ingest lanes) with no
// serialization. Payload bytes never move: the payload slices are GC-owned
// and cross by reference, so the edge carries no block reference and
// ReceiveBatch always returns a nil one — a pooled TCP receive block never
// crosses an in-proc edge (DESIGN §11). What a hop does cost is the 72-byte
// Tuple value copied twice — from the caller's batch into the ring's free
// slots (deliver), from the ready slots into the receiver's dst
// (ReceiveBatch) — and one cursor store per side per batch, not per tuple.
// The sender stages nothing: a batch goes from the caller's slice straight
// into the ring.
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
// non-positive capacity. It matches the merger's default ingest ring
// (runtime.DefaultMergerQueue): roughly the tuple count a default TCP socket
// buffer absorbs, so the blocking signal has the same granularity on both
// transports.
const DefaultInprocRing = 1024

// inprocPipe is the state shared by a connected sender/receiver pair.
type inprocPipe struct {
	ring *spsc.Ring[Tuple]

	// sendClosed: the sender closed cleanly (receiver drains then sees EOF).
	// recvClosed: the receiver closed (sends fail). Both are one-way latches.
	sendClosed atomic.Bool
	recvClosed atomic.Bool

	sendPark spsc.Parker // sender parks here while the ring is full
	recvPark spsc.Parker // receiver parks here while the ring is empty

	// acks is the edge's reverse half: the receiver's Ack stores into it and
	// the sender's owner reads it directly (acks.go).
	acks *Acks
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
	p := &inprocPipe{ring: spsc.NewRing[Tuple](capacity), acks: NewAcks()}
	return &InprocSender{p: p, now: time.Now}, &InprocReceiver{p: p}
}

// InprocSender is the producing end of an in-process edge. It mirrors the
// TCP Sender's surface and accounting; see BatchSender.
type InprocSender struct {
	p *inprocPipe

	stall time.Duration // bounds one park (SetStallTimeout)

	edgeCounters

	// now is replaceable for tests.
	now func() time.Time
}

// Capacity returns the pipe's true (rounded) ring capacity in tuples.
func (s *InprocSender) Capacity() int { return s.p.ring.Cap() }

// Acks returns the edge's acks: the receiver's latest Ack, readable here
// with no wire in between, and closed once the receiver closes.
func (s *InprocSender) Acks() *Acks { return s.p.acks }

// CheckBatch applies the TCP path's frame-size and encodability bounds to
// ts, so an unencodable tuple fails identically on both transports: the
// error names the first one, and the caller delivers nothing from ts
// (SendBatch atomicity).
func CheckBatch(ts []Tuple) error {
	for i := range ts {
		if err := checkFrameable(&ts[i]); err != nil {
			return fmt.Errorf("transport: batch tuple seq %d: %w", ts[i].Seq, err)
		}
	}
	return nil
}

// checkFrameable inlines into CheckBatch's loop: the common tuple (unkeyed,
// nothing absorbed, a payload that fits) needs no encoding computed.
func checkFrameable(t *Tuple) error {
	if t.Key == 0 && len(t.Absorbed) == 0 && len(t.Payload) <= MaxFrameSize-8 {
		return nil
	}
	return frameError(t)
}

// frameError is the slow path, kept out of line so checkFrameable inlines:
// what encoding t would fail with.
//
//go:noinline
func frameError(t *Tuple) error {
	_, _, err := frameExtra(t)
	return err
}

// Send is a batch of one through SendBatch, so the tuple is its own flush and
// its own elect-to-block episode.
func (s *InprocSender) Send(t Tuple) error {
	ts := [1]Tuple{t}
	return s.SendBatch(ts[:])
}

// SendBatch delivers ts as one batch, failing atomically on an unencodable
// tuple exactly as the TCP sender does: nothing from ts is sent. The batch is
// validated, then written straight into the ring's free slots (deliver); on
// error the undelivered remainder is discarded, as on TCP: the edge is
// failed. Payloads are referenced, not copied — they must be GC-owned and
// must not be mutated once delivered.
func (s *InprocSender) SendBatch(ts []Tuple) error {
	if err := CheckBatch(ts); err != nil {
		return err
	}
	if len(ts) == 0 {
		return nil
	}
	if err := s.deliver(ts); err != nil {
		return fmt.Errorf("transport: flush batch of %d: %w", len(ts), err)
	}
	s.sent.Add(int64(len(ts)))
	s.flushes.Add(1)
	return nil
}

// deliver copies ts, in order, into the ring's free slots and publishes each
// chunk with one cursor store, parking when no slot is free. The consumer is
// woken before any park — the tuples already published may be exactly what
// it is waiting for — and once after the last publish.
func (s *InprocSender) deliver(ts []Tuple) error {
	p := s.p
	published := false
	for len(ts) > 0 {
		err := s.closedErr()
		if err == nil {
			a, b := p.ring.Free()
			n := copy(a, ts)
			n += copy(b, ts[n:])
			if n > 0 {
				p.ring.Publish(n)
				ts = ts[n:]
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
			return err
		}
	}
	if published {
		p.recvPark.Wake()
	}
	return nil
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
	stalled := p.sendPark.ParkFor(func() bool {
		return p.ring.Full() && !p.recvClosed.Load() && !p.sendClosed.Load()
	}, s.stall)
	s.addBlocked(s.now().Sub(start))
	if stalled {
		return errInprocStall
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

// Close ends the sending side: a parked delivery (local or on the peer)
// wakes, and once the receiver drains the ring it sees io.EOF — the clean
// shutdown a TCP close delivers. Idempotent; callable from any goroutine.
func (s *InprocSender) Close() error {
	if s.p.sendClosed.Swap(true) {
		return nil
	}
	s.p.recvPark.Wake()
	s.p.sendPark.Wake()
	return nil
}

// InprocReceiver is the consuming end of an in-process edge; see
// BatchReceiver. Tuples come out exactly as they went in — same Seq, same
// payload bytes by reference — with no block reference: the payloads are
// GC-owned, so the consumer has nothing to release.
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
// DefaultRecvBatch. The tuples are copied out of the ring's ready slots,
// which are then released to the sender with one cursor store. The returned
// BlockRef is always nil (GC-owned payloads; nil is a valid no-op receiver).
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
		a, b := p.ring.Ready()
		a = a[:min(len(a), max)]
		b = b[:min(len(b), max-len(a))]
		if dst = append(append(dst, a...), b...); len(dst) > 0 {
			p.ring.Release(len(dst))
			p.sendPark.Wake()
			return dst, nil, nil
		}
		if p.sendClosed.Load() && p.ring.Len() == 0 {
			return dst, nil, io.EOF
		}
		p.recvPark.Park(func() bool {
			return p.ring.Len() == 0 && !p.sendClosed.Load() && !p.recvClosed.Load()
		})
	}
}

// Ack stores n as the edge's cumulative ack (see InprocSender.Acks). Call it
// from the consuming goroutine.
func (r *InprocReceiver) Ack(n uint64) error {
	r.p.acks.Store(n)
	return nil
}

// Close ends the receiving side: a parked ReceiveBatch returns
// ErrInprocClosed, a parked or future send fails and the acks end. Tuples
// left in the ring are simply dropped with it. Idempotent; callable from any
// goroutine.
func (r *InprocReceiver) Close() error {
	if r.p.recvClosed.Swap(true) {
		return nil
	}
	r.p.acks.Close()
	r.p.recvPark.Wake()
	r.p.sendPark.Wake()
	return nil
}
