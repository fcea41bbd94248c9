// Package runtime is a miniature distributed streaming runtime: the
// "real system" counterpart to the discrete-event simulator in internal/sim.
// It executes one ordered data-parallel region (Section 2 of the paper) as
// actual OS-level components communicating over loopback TCP:
//
//	splitter --TCP--> worker PE 0..N-1 --TCP--> merger --> sink
//
// The splitter is a single goroutine (the paper's single thread of control)
// that distributes tuples by smooth weighted round-robin using
// transport.Sender, which measures per-connection cumulative blocking time
// with non-blocking writes and netpoller waits. Worker PEs are stateless
// operators that spin for a configurable number of integer multiplies per
// tuple — the paper's workload — and forward results to the merger. The
// merger restores strict sequence order with bounded per-connection reorder
// queues; when it is waiting for a tuple from a slow connection it stops
// draining the fast ones, so back pressure propagates through TCP exactly as
// in the paper's system. Every collection interval the splitter goroutine
// itself, between two send rounds, differences its senders' blocking counters
// and takes one core.Balancer.Step — the step internal/sim takes — so a sample
// never cuts a blocking episode in two and nothing on the send path locks.
//
// Each stage has one implementation, written against the transport package's
// BatchSender/BatchReceiver edges, so the same send loop, worker loop
// (workLoop), merger ingest and merge loop run whether the edges are TCP
// connections or in-process rings (RegionConfig.Transport), and whether
// batches hold one tuple or many (DESIGN §8). An in-proc worker's forward is
// the ingest itself (ingestEdge); a TCP stream's is fed by a reader
// (readLoop).
//
// Observability (RegionMetrics, DESIGN §10): a count the data path keeps for
// its own work is read by the metrics registry at scrape time, never mirrored;
// what exists only to be observed is pushed per event or tick, never per tuple.
//
// Everything runs in one process here, so with few CPUs the workers time-
// share; the runtime is the end-to-end functional validation of the metric
// path (kernel buffers -> blocking time -> rates -> model -> weights), while
// the simulator is the vehicle for the paper's cluster-scale experiments.
package runtime
