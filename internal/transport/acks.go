package transport

import (
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
)

// The reverse half of a splitter→worker edge. The worker reports, after each
// forward, how many of the edge's input tuples it has finished with in total
// (absorbed ones included): a cumulative count, so a lost or late report is
// made good by the next one. The splitter subtracts it from what it sent to
// get the edge's in-flight tuples, which it bounds (DESIGN §4b).
//
// On an in-proc edge the count is one shared atomic (InprocReceiver.Ack,
// InprocSender.Acks). On TCP it travels as an 8-byte little-endian frame on
// the connection's reverse direction (Receiver.Ack, ReadAcks), and only on a
// stream that opened with the sender's hello (WriteAckHello): a peer that
// never reads its connection gets no bytes back, so its close cannot turn
// into a reset that discards the worker's unread input.
//
// A consumer that acks at all acks 0 before its first tuple (Acking), and its
// sender's owner waits on no other: a bare drain never acks. On TCP the hello
// is a question: the receiver answers it at once, with that first ack or
// with ackNone from a consumer that will not ack, and the sender reads the
// answer before its first frame (ReadAckAnswer).

// ackHello is the word a splitter writes before its first frame to ask for
// acks. Bits 25-28 are set, which no frame's length word has (a body is at
// most 2^24 bytes and the flags are bits 29-31), so a receiver tells it from
// a frame by looking.
const ackHello = 0x1E_43_52_44

// ackFrameSize is one ack on the wire: the cumulative count.
const ackFrameSize = 8

// ackNone answers the hello from a consumer that will not ack: a count no
// stream reaches.
const ackNone = ^uint64(0)

// WriteAckHello asks the worker at the other end of w for acks. Write it
// before any frame, and read the answer with ReadAckAnswer.
func WriteAckHello(w io.Writer) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], ackHello)
	_, err := w.Write(b[:])
	return err
}

// Acks holds one edge's latest cumulative ack and wakes a waiter on it: Bell
// holds one pending ring per update, Done closes when the reverse stream has
// ended. Store and Close come from the edge's consumer side; Load, Bell and
// Done may be used from any goroutine.
type Acks struct {
	n      atomic.Uint64
	acking atomic.Bool
	bell   chan struct{}
	done   chan struct{}
	once   sync.Once
}

// NewAcks returns an open Acks at count 0.
func NewAcks() *Acks {
	return &Acks{bell: make(chan struct{}, 1), done: make(chan struct{})}
}

// Store records the cumulative count n and rings the bell.
func (a *Acks) Store(n uint64) {
	a.n.Store(n)
	if !a.acking.Load() {
		a.acking.Store(true)
	}
	select {
	case a.bell <- struct{}{}:
	default:
	}
}

// Load returns the latest cumulative count.
func (a *Acks) Load() uint64 { return a.n.Load() }

// Acking reports whether any ack has been stored: whether the consumer acks.
func (a *Acks) Acking() bool { return a.acking.Load() }

// Bell is readable after a Store that no receive has consumed yet.
func (a *Acks) Bell() <-chan struct{} { return a.bell }

// Done is closed once no more acks will come.
func (a *Acks) Done() <-chan struct{} { return a.done }

// Close ends the stream of acks. Idempotent.
func (a *Acks) Close() { a.once.Do(func() { close(a.done) }) }

// ReadAckAnswer reads the answer to the hello from r into a: a consumer that
// acks has acked 0 (a.Acking), one that will not has not.
func ReadAckAnswer(r io.Reader, a *Acks) error {
	var b [ackFrameSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	if n := binary.LittleEndian.Uint64(b[:]); n != ackNone {
		a.Store(n)
	}
	return nil
}

// ReadAcks stores every ack frame read from r into a until r fails, then
// closes a and returns the error that ended the stream (io.EOF at a clean
// end). It is the one reader of a TCP edge's reverse direction.
func ReadAcks(r io.Reader, a *Acks) error {
	defer a.Close()
	var buf [64 * ackFrameSize]byte
	have := 0
	for {
		n, err := r.Read(buf[have:])
		have += n
		if whole := have - have%ackFrameSize; whole > 0 {
			a.Store(binary.LittleEndian.Uint64(buf[whole-ackFrameSize:]))
			have = copy(buf[:], buf[whole:have])
		}
		if err != nil {
			return err
		}
	}
}
