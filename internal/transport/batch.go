package transport

import (
	"fmt"
	"sync"
)

// queue and flush are the Sender's only write path, and SendBatch is its one
// caller: frames are staged on the connection and leave with one vectored
// write. A batch has no wire header — it is just concatenated frames — so the
// receiver is oblivious to how the sender grouped them, and a batch of one
// (Send) is byte-identical to a single frame.
//
// One flush is one elect-to-block episode: if the socket buffer fills
// anywhere inside the batch, the sender elects to block there and the parked
// time is accounted to this connection's cumulative counter (Section 3).
// What one flush carries is the caller's choice: the splitter writes what one
// round of up to BatchSize tuples gave the connection, or, on a congested
// edge, the whole rounds it held until they reached a quarter of the socket
// buffer (see the README's "Batched sends" section).
// The counter is cumulative either way; only the number of writes changes.

const (
	// zeroCopyThreshold is the payload size at which queue stops copying
	// the payload into the coalesce buffer and instead passes it to writev
	// as its own iovec. Below it, copying into one contiguous buffer is
	// cheaper than growing the iovec list.
	zeroCopyThreshold = 1 << 10

	// frameBufCap seeds coalesce buffers; buffers grow to fit a whole batch
	// and keep their grown capacity.
	frameBufCap = 16 << 10
)

// frameBuf is a pooled frame buffer. The pool stores pointers so that
// Get/Put never allocate on the hot path (a bare slice would escape into
// the interface on every Put).
type frameBuf struct{ b []byte }

var framePool = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, frameBufCap)} },
}

// queue stages one tuple on the write queue without writing. Small payloads
// are coalesced (copied) into a frame buffer; payloads of zeroCopyThreshold
// bytes or more are referenced zero-copy, so the caller must not mutate them
// until flush returns. An error (only an unencodable frame) leaves the batch
// as it was, without the offending tuple.
func (s *Sender) queue(t Tuple) error {
	if s.coalesce == nil {
		s.coalesce = framePool.Get().(*frameBuf)
	}
	if len(t.Payload) >= zeroCopyThreshold {
		b, err := AppendFrameHeader(s.coalesce.b, t)
		if err != nil {
			return err
		}
		s.coalesce.b = b
		s.cutCoalesce()
		s.wq = append(s.wq, t.Payload)
	} else {
		b, err := AppendFrame(s.coalesce.b, t)
		if err != nil {
			return err
		}
		s.coalesce.b = b
	}
	s.queued++
	return nil
}

// cutCoalesce seals the current coalesce buffer onto the write queue.
func (s *Sender) cutCoalesce() {
	if s.coalesce == nil || len(s.coalesce.b) == 0 {
		return
	}
	s.wq = append(s.wq, s.coalesce.b)
	s.sealed = append(s.sealed, s.coalesce)
	s.coalesce = nil
}

// flush writes every staged tuple with one vectored write (chunked at
// iovMax), electing to block — and accounting the blocked time — when the
// socket buffer fills anywhere in the batch. On error the batch is
// discarded: the connection is in an undefined mid-frame state and the
// caller must treat it as failed (under recovery, the retained tuples are
// replayed elsewhere and the merger dedupes any partial deliveries).
func (s *Sender) flush() error {
	s.cutCoalesce()
	if len(s.wq) == 0 {
		return nil
	}
	n := s.queued
	err := s.flushWrite()
	s.releaseStaged()
	if err != nil {
		return fmt.Errorf("transport: flush batch of %d: %w", n, err)
	}
	s.sent.Add(int64(n))
	s.flushes.Add(1)
	return nil
}

// releaseStaged empties the write queue, dropping its payload references.
// The first sealed frame buffer stays with the sender as the next batch's
// coalesce buffer, so a steady stream of small batches — a batch of one
// above all — never touches the pool; the rest return to it.
func (s *Sender) releaseStaged() {
	for i := range s.wq {
		s.wq[i] = nil
	}
	s.wq = s.wq[:0]
	for i, fb := range s.sealed {
		fb.b = fb.b[:0]
		if i == 0 && s.coalesce == nil {
			s.coalesce = fb
		} else {
			framePool.Put(fb)
		}
		s.sealed[i] = nil
	}
	s.sealed = s.sealed[:0]
	s.queued = 0
}

// SendBatch stages and flushes ts as one batch. It fails atomically on an
// unencodable tuple: nothing from ts is sent. Payloads of zeroCopyThreshold
// bytes or more must not be mutated until SendBatch returns.
func (s *Sender) SendBatch(ts []Tuple) error {
	for i := range ts {
		if err := s.queue(ts[i]); err != nil {
			if s.coalesce != nil {
				s.coalesce.b = s.coalesce.b[:0]
			}
			s.releaseStaged()
			return fmt.Errorf("transport: batch tuple seq %d: %w", ts[i].Seq, err)
		}
	}
	return s.flush()
}
