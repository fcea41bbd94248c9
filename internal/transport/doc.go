// Package transport is the data transport layer of the streaming runtime:
// the edges of a parallel region, with the per-connection cumulative
// blocking-time instrumentation of Section 3 of the paper.
//
// The paper's transport issues send(2) with MSG_DONTWAIT; when the kernel
// reports the socket buffer full it records the fact and then *elects to
// block* in select(2), adding the measured wait to a per-connection
// cumulative blocking-time counter. Go's runtime poller offers the same
// mechanism through syscall.RawConn: the Write callback performs a
// non-blocking write(2) on the raw descriptor, and returning false parks the
// goroutine in the netpoller until the socket is writable again — precisely
// the "record, then block anyway" behaviour, with the wait timed around the
// park. A Sender accumulates those waits; a periodic sampler (stats
// package) turns the cumulative counter into the blocking rate the balancer
// consumes.
//
// An edge is a BatchSender/BatchReceiver pair with two implementations: the
// TCP Sender/Receiver (length-prefixed frames) and the in-process
// InprocSender/InprocReceiver (a bounded spsc.Ring of tuples, parking on
// spsc.Parker when full or empty, timing the wait into the same counters).
// Each has one data path:
//
//   - Send side: SendBatch delivers the caller's batch as one flush under one
//     elect-to-block accounting episode; Send goes through it, and a single
//     tuple is a batch of one, never a separate path. A sender stages
//     nothing between calls: the splitter builds its runs in its own buffer,
//     and the in-proc sender copies a batch straight into the ring's free
//     slots.
//   - Receive side: ReceiveBatch blocks for the first tuple and then takes
//     whatever else has already arrived, up to the caller's bound. The TCP
//     Receiver decodes in place: read(2) lands in a pooled 64 KiB block and
//     the tuples' Payload and Absorbed are cap-limited slices of it, so no
//     byte is copied between the kernel and the consumer.
//
// Who owns a BlockRef: a BlockRef is one pooled block and its reference
// count. ReceiveBatch returns it holding one reference per returned tuple
// (nil when the payloads are GC-owned), and the caller must release each
// exactly once; until then it may read, overwrite and append to the slices,
// afterwards it may not touch them. Consecutive batches usually share a
// block, which returns to the pool when the receiver has moved off it and
// every tuple decoded out of it is released. A caller forwarding such tuples
// releases their references once SendBatch has returned: a TCP sender is
// done with the payloads by then (for payloads of zeroCopyThreshold bytes or
// more the iovec points straight into the receive block). A pooled block
// never crosses an in-proc edge: its payloads are GC-owned, so its
// ReceiveBatch returns a nil ref. recvbatch.go states the counting
// invariant; DESIGN §4b and §8 follow a reference hop by hop through a whole
// region.
package transport
