package transport

import "fmt"

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
	// the payload into the frame buffer and instead passes it to writev as
	// its own iovec. Below it, copying into one contiguous buffer is
	// cheaper than growing the iovec list.
	zeroCopyThreshold = 1 << 10

	// frameBufCap seeds the Sender's frame buffer; it grows to fit a whole
	// batch and keeps its grown capacity.
	frameBufCap = 16 << 10
)

// queue stages one tuple on the write queue without writing. Small payloads
// are copied into the frame buffer; payloads of zeroCopyThreshold bytes or
// more are referenced zero-copy, so the caller must not mutate them until
// flush returns. An error (only an unencodable frame) leaves the batch as it
// was, without the offending tuple.
func (s *Sender) queue(t Tuple) error {
	if len(t.Payload) >= zeroCopyThreshold {
		b, err := AppendFrameHeader(s.buf, t)
		if err != nil {
			return err
		}
		s.buf = b
		s.cut()
		s.wq = append(s.wq, t.Payload)
	} else {
		b, err := AppendFrame(s.buf, t)
		if err != nil {
			return err
		}
		s.buf = b
	}
	s.queued++
	return nil
}

// cut queues the frame bytes staged since the last cut. Later frames append
// past them; if that grows buf, buf moves, and the slice already on wq keeps
// the old array's bytes.
func (s *Sender) cut() {
	if len(s.buf) == s.cutAt {
		return
	}
	s.wq = append(s.wq, s.buf[s.cutAt:len(s.buf):len(s.buf)])
	s.cutAt = len(s.buf)
}

// flush writes every staged tuple with one vectored write (chunked at
// iovMax), electing to block — and accounting the blocked time — when the
// socket buffer fills anywhere in the batch. On error the batch is
// discarded: the connection is in an undefined mid-frame state and the
// caller must treat it as failed (under recovery, the retained tuples are
// replayed elsewhere and the merger dedupes any partial deliveries).
func (s *Sender) flush() error {
	s.cut()
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

// releaseStaged empties the write queue, dropping its payload references,
// and the frame buffer, keeping its capacity for the next batch.
func (s *Sender) releaseStaged() {
	clear(s.wq)
	s.wq = s.wq[:0]
	s.buf = s.buf[:0]
	s.cutAt = 0
	s.queued = 0
}

// SendBatch stages and flushes ts as one batch. It fails atomically on an
// unencodable tuple: nothing from ts is sent. Payloads of zeroCopyThreshold
// bytes or more must not be mutated until SendBatch returns.
func (s *Sender) SendBatch(ts []Tuple) error {
	for i := range ts {
		if err := s.queue(ts[i]); err != nil {
			s.releaseStaged()
			return fmt.Errorf("transport: batch tuple seq %d: %w", ts[i].Seq, err)
		}
	}
	return s.flush()
}
