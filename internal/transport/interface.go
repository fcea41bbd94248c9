package transport

import "time"

// BatchSender is the transport-neutral send half of one splitter→worker or
// worker→merger edge. The paper's balancer depends only on the per-connection
// cumulative-blocking signal, not on TCP itself: any transport that attempts
// each send without blocking, elects to block when its buffer is full, and
// times the wait into the cumulative counter drives core.Balancer exactly
// like a TCP connection. Two implementations exist here — the TCP Sender
// (non-blocking write(2)/writev(2) with poller parks) and the in-process
// InprocSender (bounded SPSC ring with spsc.Parker parks) — and the runtime's
// splitter, worker loop and controller are written against this interface;
// a region picks one transport for all its edges. (An in-proc worker's
// forward is the runtime's own: the merger's ingest, checked by CheckBatch.)
//
// A batch is the unit of the write path: SendBatch delivers the caller's
// tuples as one flush under one elect-to-block accounting episode, and Send
// goes through the same path. A sender keeps no staged state between calls —
// the caller (the splitter, a worker loop) owns the batch it builds, and the
// block references its payloads may alias: a TCP sender is done with the
// payloads when SendBatch returns, and an in-proc sender takes GC-owned
// payloads only. The two send calls may be made from only one goroutine at
// a time; the counters may be read concurrently; Close may be called from
// any goroutine (it unblocks an elected-to-block send in progress).
type BatchSender interface {
	// Send is a batch of one, so the tuple is its own elect-to-block episode.
	Send(t Tuple) error
	// SendBatch delivers ts as one flush, atomically failing on an
	// unencodable tuple (nothing from ts is sent).
	SendBatch(ts []Tuple) error
	// SetStallTimeout bounds how long one flush may stay blocked on a peer
	// that is not draining (0 disables).
	SetStallTimeout(d time.Duration)
	// TotalBlocking returns the lifetime blocking time on this edge, the
	// Section 3 cumulative counter; the controller differences successive
	// readings to obtain the rate.
	TotalBlocking() time.Duration
	// BlockEvents returns how many sends elected to block.
	BlockEvents() int64
	// Sent returns how many tuples have been delivered.
	Sent() int64
	// Flushes returns how many batch flushes have completed. Every send is
	// a flush, so Sent/Flushes is the mean batch size.
	Flushes() int64
	// Close tears the edge down, unblocking a parked send with an error.
	Close() error
}

// BatchReceiver is the transport-neutral receive half of an edge: the
// batched decode surface the merger's connection reader and the worker loop
// consume. Payloads are handed out under the BlockRef release contract
// (ReceiveBatch returns one reference per tuple; nil when the payloads are
// GC-owned, which on an in-proc edge they always are), identical across
// transports so the merger's ingest, dedup and teardown paths never know
// which transport fed them.
//
// ReceiveBatch may be called from only one goroutine at a time (the
// single-consumer rule); Close may be called from any goroutine and unblocks
// a waiting ReceiveBatch.
type BatchReceiver interface {
	// ReceiveBatch decodes up to max tuples into dst, blocking only for the
	// first; see Receiver.ReceiveBatch for the full contract.
	ReceiveBatch(dst []Tuple, max int) ([]Tuple, *BlockRef, error)
	// Ack tells the sending end that the consumer has finished with n of
	// the edge's tuples in total (acks.go). Only a worker acks; the merger
	// never does.
	Ack(n uint64) error
	// Close tears the receive side down, unblocking a waiting ReceiveBatch.
	Close() error
}

// Compile-time checks: both transports satisfy the edge interfaces.
var (
	_ BatchSender   = (*Sender)(nil)
	_ BatchSender   = (*InprocSender)(nil)
	_ BatchReceiver = (*Receiver)(nil)
	_ BatchReceiver = (*InprocReceiver)(nil)
)
