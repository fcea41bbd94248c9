package runtime

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streambalance/internal/metrics"
	"streambalance/internal/spsc"
	"streambalance/internal/transport"
)

// DefaultMergerQueue bounds each connection's reorder backlog (ring plus
// heap): while the tuple the merge needs next has not arrived, at most this
// many tuples are buffered per other connection before their readers stop
// draining TCP — which is how back pressure reaches the splitter through the
// fast connections only under severe skew (see Section 4.1 and the sim
// package's discussion).
const DefaultMergerQueue = 1024

// DefaultMergerRing bounds each connection's lock-free ingest ring in tuples
// (rounded up to a power of two). The ring is a hand-off lane, not the
// reorder buffer: it only needs to cover the bursts between merge-loop drain
// passes, and its occupancy counts toward the DefaultMergerQueue back-pressure
// cap.
const DefaultMergerRing = 1024

// capWaiveDelay is how long the merge loop tolerates being unable to
// release while a stream sits at its back-pressure cap before it waives the
// cap (mergeStuck): long enough that a tuple already in flight on another
// stream (the common cause — its reader merely hasn't been scheduled)
// resolves the gap without waiving, short enough that under a persistent
// gap — a straggling worker, a replay wedged behind a survivor's backlog —
// the fast streams are only ever paused briefly, preserving the old locked
// merger's behavior of not converting a head-blocked merge into a false
// blocking signal on the healthy connections.
const capWaiveDelay = 100 * time.Microsecond

// capWaivePoll is the merge loop's poll-sleep granularity inside the
// capWaiveDelay window; sleeping (rather than cond-parking) hands the CPU
// to the connection readers, one of which is usually about to deliver the
// sequence the merge is waiting on.
const capWaivePoll = 20 * time.Microsecond

// capWaiveHot is the hysteresis window after a waiver fires during which
// further head-blocked parks waive immediately, skipping the capWaiveDelay
// poll. A replay drain head-blocks once per buried sequence; the first
// episode proves the wedge is real, and charging every subsequent episode
// the full poll would turn recovery into a sequence of stalls.
const capWaiveHot = 10 * time.Millisecond

// DefaultWatermarkInterval is how often the merger reports its released
// watermark on the control channel.
const DefaultWatermarkInterval = 20 * time.Millisecond

// Merger restores sequence order across N worker connections (Section 4.1).
// Tuples leave through the sink callback in strictly increasing sequence
// order, regardless of which worker processed them or when.
//
// Unlike the paper's merger, a worker stream ending is not fatal: a worker
// id may detach (crash) and later reattach (restart), and replayed tuples
// that were already released are deduplicated, so every sequence number is
// released exactly once. The merger learns the stream's total length from
// the splitter's FIN frame on the control channel; without a control
// channel it falls back to the original fixed-worker semantics.
//
// Ingest is sharded: each connection reader owns a bounded lock-free SPSC
// ring (producer = the reader, consumer = the merge loop); the merge loop
// releases in-order runs and queues the rest per stream, picking runs
// through an indexed min-heap over the stream heads. No mutex is
// taken on the tuple hot path; per-item ordered-merge synchronization is the
// multicore scaling ceiling Prasaad et al. identify, and it previously capped
// ingest at 64 connections on one lock hand-off. Locks remain only on the
// control plane (membership, FIN, errors — all rare), fenced from the merge
// loop by an epoch counter, and inside park/wake, which is touched only when
// a goroutine actually goes to sleep.
type Merger struct {
	ln         net.Listener
	workers    int
	queueCap   int
	ringCap    int
	recvBatch  int                         // max tuples decoded per ReceiveBatch pass; 0: the edge decides
	sink       func(*transport.Tuple, int) // reads through the pointer, never retains it
	wmInterval time.Duration
	to         Timeouts

	// Data plane. rings[id] is written by connection id's reader and
	// drained by the merge loop; queues (per-stream reorder heaps) and
	// heads (the release tournament over their minimums) are touched by
	// the merge loop alone. depth[id] republishes each heap's occupancy
	// so producers and a metrics scrape can read it without entering the
	// merge loop's world. held is where releaseRuns pops an item it cannot
	// release in place (see releaseOne).
	rings  []*spsc.Ring[mergeItem]
	queues []streamQueue
	heads  *headIndex
	depth  []paddedCount
	held   mergeItem

	// Park/wake, all on spsc.Parker (whose Wake fast-paths to a single
	// atomic load while the other side is awake). The merge loop parks on
	// mergePark when every ring is empty; producers wake it with
	// wakeMerge. Each reader parks on its own stream's spot (parks[id])
	// when its backlog hits the back-pressure cap or its ring is full —
	// private spots so one stream draining does not broadcast to the
	// other sixty-three — and is woken selectively: when the merge
	// loop drains its ring, when its backlog descends through wakeAt
	// (refill hysteresis — waking at cap-1 would let it push one tuple and
	// re-park, a broadcast storm under contention), and by wakeAll on any
	// control-plane change. mergeStuck is the merge loop's published "I
	// cannot release anything while a stream sits at its cap" bit: while
	// it is set, readers at their cap overflow instead of parking, because
	// the sequence the merge needs may be *behind* the tuple in their hand
	// (a replay queued after a survivor's backlog) and parking would wedge
	// the region on head-of-line blocking.
	mergePark  spsc.Parker
	parks      []spsc.Parker
	wakeAt     int       // queue depth at which a cap-parked reader is rewoken
	lastWaive  time.Time // merge loop only: when the cap was last waived
	mergeStuck atomic.Bool
	closed     atomic.Bool

	// Control plane, guarded by ctl: membership and completion state that
	// changes on the order of connections, not tuples. Every mutation
	// bumps epoch (under ctl) and then calls wakeAll; the merge loop
	// caches a snapshot and refreshes it when the epoch moves, re-fencing
	// against the current epoch before any terminal decision.
	ctl      sync.Mutex
	epoch    atomic.Uint64
	live     []bool // worker id currently attached
	seen     []bool
	attached int // distinct worker ids ever attached
	finKnown bool
	finTotal uint64
	ctrlSeen bool // a control connection has ever attached
	ctrlLive int  // control connections currently open
	fatal    error
	strmErrs []error
	pending  map[net.Conn]struct{} // accepted conns mid-handshake, for teardown
	// readers tracks the attached worker edges, TCP and in-process alike, so
	// teardown can close them: closing a TCP edge fails its reader's blocked
	// read; closing an in-proc edge wakes its parked producer and sweeps
	// stranded block references.
	readers map[transport.BatchReceiver]struct{}

	// lastIngest is the wall time (unix nanos) each worker id last
	// delivered a batch (0 until its first attach), stamped lock-free by the
	// connection readers and read by a scrape for the ingest-age gauge.
	lastIngest []atomic.Int64

	// next is the released watermark: the lowest unreleased sequence
	// number. Mutated only by the merge loop, read everywhere (readers'
	// dedup/admission checks, the watermark writer, stats accessors).
	next atomic.Uint64

	// absorbed holds sequence numbers claimed by released combined carriers
	// (worker-side per-key aggregation) that the watermark has not yet
	// passed. When the watermark reaches an absorbed seq it advances
	// silently — no sink call, the carrier's payload already delivered the
	// aggregate. Merge loop only. A carrier popping as a duplicate never
	// registers its absorbed seqs: its connection died before release, so
	// every unreleased group member was replayed individually (solo) and
	// releases through the normal path.
	absorbed map[uint64]struct{}

	// released counts tuples delivered to the sink. The merge loop advances
	// it once per drainRings or releaseRuns pass, not per tuple; with
	// combined it accounts for every sequence number below next.
	released   atomic.Uint64
	deduped    atomic.Uint64
	dupRejects atomic.Uint64
	combined   atomic.Uint64 // seqs released via carrier absorption

	wmStop chan struct{} // tells watermark writers to flush and exit
	done   chan struct{}
	err    error
	wg     sync.WaitGroup

	// Handles for what exists only to be observed (batch sizes, park/wake
	// events, the trace); nil when the merger is uninstrumented. Set before
	// Start.
	rm           *RegionMetrics
	mIngestBatch *metrics.Histogram
	mParks       *metrics.Counter
	mWakes       *metrics.Counter
}

// NewMerger listens for worker connections. sink receives every tuple, in
// order, with the worker id that processed it; it runs on the merge goroutine
// and must not block indefinitely. queueCap <= 0 selects DefaultMergerQueue.
func NewMerger(workers, queueCap int, sink func(transport.Tuple, int)) (*Merger, error) {
	if sink == nil {
		return newMerger(workers, queueCap, nil, true)
	}
	return newMerger(workers, queueCap, func(t *transport.Tuple, id int) { sink(*t, id) }, true)
}

// newMerger builds a merger whose sink reads each released tuple where it
// lies. Without listen it opens no socket and runs no accept loop — an
// in-proc region's streams all arrive through AttachInproc — and Addr
// returns "".
func newMerger(workers, queueCap int, sink func(*transport.Tuple, int), listen bool) (*Merger, error) {
	if workers <= 0 {
		return nil, errors.New("runtime: merger needs at least one worker")
	}
	if sink == nil {
		return nil, errors.New("runtime: merger needs a sink")
	}
	if queueCap <= 0 {
		queueCap = DefaultMergerQueue
	}
	m := &Merger{
		workers:    workers,
		queueCap:   queueCap,
		ringCap:    DefaultMergerRing,
		sink:       sink,
		wmInterval: DefaultWatermarkInterval,
		to:         Timeouts{}.norm(),
		rings:      make([]*spsc.Ring[mergeItem], workers),
		queues:     make([]streamQueue, workers),
		heads:      newHeadIndex(workers),
		depth:      make([]paddedCount, workers),
		live:       make([]bool, workers),
		seen:       make([]bool, workers),
		pending:    make(map[net.Conn]struct{}),
		readers:    make(map[transport.BatchReceiver]struct{}),
		lastIngest: make([]atomic.Int64, workers),
		absorbed:   make(map[uint64]struct{}),
		wmStop:     make(chan struct{}),
		done:       make(chan struct{}),
	}
	for id := range m.rings {
		m.rings[id] = spsc.NewRing[mergeItem](m.ringCap)
	}
	m.parks = make([]spsc.Parker, workers)
	m.wakeAt = queueCap / 2
	if listen {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("runtime: merger listen: %w", err)
		}
		m.ln = ln
	}
	return m, nil
}

// SetTimeouts overrides the merger's I/O deadlines (handshake reads,
// control-channel writes). Call before Start.
func (m *Merger) SetTimeouts(t Timeouts) {
	m.to = t.norm()
}

// SetWatermarkInterval tunes how often released watermarks are reported on
// the control channel. Call before Start.
func (m *Merger) SetWatermarkInterval(d time.Duration) {
	if d > 0 {
		m.wmInterval = d
	}
}

// SetRecvBatch caps the tuples one connection reader ingests per pass (1 is
// a batch of one). By default the edge decides: one read's worth on TCP, up
// to transport.DefaultRecvBatch in-proc. Call before Start.
func (m *Merger) SetRecvBatch(n int) {
	if n > 0 {
		m.recvBatch = n
	}
}

// SetRingCap resizes each connection's lock-free ingest ring (default
// DefaultMergerRing; rounded up to a power of two, minimum 2). The ring
// bounds burst hand-off between a reader and the merge loop, not the reorder
// backlog — ring occupancy counts toward the queueCap back-pressure bound.
// Call before Start.
func (m *Merger) SetRingCap(n int) {
	if n <= 0 {
		return
	}
	m.ringCap = n
	for id := range m.rings {
		m.rings[id] = spsc.NewRing[mergeItem](n)
	}
}

// SetMetrics instruments the merger. The counts the merge keeps for its own
// work (watermark, released, dedup and combined totals, per-connection queue
// and ring occupancy, last-ingest age) are bound to their atomics and read at
// scrape time; batch sizes and park/wake events are pushed where they happen.
// Call before Start; nil is a no-op.
func (m *Merger) SetMetrics(rm *RegionMetrics) {
	if rm == nil {
		return
	}
	m.rm = rm
	rm.released.SetFunc(func() float64 { return float64(m.released.Load()) })
	rm.watermark.SetFunc(func() float64 { return float64(m.next.Load()) })
	rm.deduped.SetFunc(func() float64 { return float64(m.deduped.Load()) })
	rm.dupRejects.SetFunc(func() float64 { return float64(m.dupRejects.Load()) })
	rm.combinedReleased.SetFunc(func() float64 { return float64(m.combined.Load()) })
	for id := 0; id < m.workers; id++ {
		id, l := id, strconv.Itoa(id)
		rm.queueDepth.With(l).SetFunc(func() float64 { return float64(m.depth[id].v.Load()) })
		// rings is read per scrape, not captured: SetRingCap may still
		// replace the rings between SetMetrics and Start.
		rm.ringDepth.With(l).SetFunc(func() float64 { return float64(m.rings[id].Len()) })
		rm.ingestAge.With(l).SetFunc(func() float64 {
			if ts := m.lastIngest[id].Load(); ts != 0 {
				return time.Since(time.Unix(0, ts)).Seconds()
			}
			return 0 // never attached
		})
	}
	m.mIngestBatch = rm.ingestBatchTuples
	m.mParks = rm.ingestParks
	m.mWakes = rm.mergeWakes
}

// Addr returns the address workers (and the splitter's control channel) dial;
// "" for an in-proc region's merger, which has no listener.
func (m *Merger) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// closeListener stops admitting connections, if the merger ever listened.
func (m *Merger) closeListener() {
	if m.ln != nil {
		m.ln.Close()
	}
}

// Deduped returns how many duplicate tuples (replays of already-released or
// already-queued sequence numbers) were dropped. Lock-free: scraping stats
// never contends with ingest.
func (m *Merger) Deduped() uint64 {
	return m.deduped.Load()
}

// DupRejects returns how many connections were rejected for claiming a
// worker id whose stream was still live. Lock-free.
func (m *Merger) DupRejects() uint64 {
	return m.dupRejects.Load()
}

// Watermark returns the lowest unreleased sequence number. Lock-free.
func (m *Merger) Watermark() uint64 {
	return m.next.Load()
}

// CombinedReleased returns how many sequence numbers were released through
// carrier absorption (worker-side combining) rather than through the sink.
// Released sink tuples plus CombinedReleased account for every sequence
// number exactly once. Lock-free.
func (m *Merger) CombinedReleased() uint64 {
	return m.combined.Load()
}

// paddedCount is an atomic counter alone on its cache line: the per-stream
// depth counters are written by the merge loop per release and read by their
// producers per tuple, and packing eight to a line would false-share every
// store across eight readers.
type paddedCount struct {
	v atomic.Int64
	_ [56]byte
}

// streamDepth is stream id's full reorder backlog: its published queue
// occupancy plus whatever sits undrained in its ring. Lock-free and
// approximate while both sides move, which is fine for back pressure.
func (m *Merger) streamDepth(id int) int {
	return int(m.depth[id].v.Load()) + m.rings[id].Len()
}

// wakeMerge unblocks the merge loop if it is parked.
func (m *Merger) wakeMerge() { m.mergePark.Wake() }

// wakeStream unblocks stream id's reader if it is parked.
func (m *Merger) wakeStream(id int) { m.parks[id].Wake() }

// wakeAll unblocks every parked goroutine — the merge loop and all stream
// readers. Control-plane use (membership changes, teardown, the merge
// loop's pre-park handoff): any state change whose unblocking effect is not
// captured by a targeted wake must come here.
func (m *Merger) wakeAll() {
	m.wakeMerge()
	for id := range m.parks {
		m.wakeStream(id)
	}
}

// Start launches the accept loop, per-connection readers and the merge loop.
func (m *Merger) Start() {
	go func() {
		defer close(m.done)
		m.err = m.run()
	}()
}

// run accepts connections and merges until the stream completes or fails.
func (m *Merger) run() error {
	if m.ln != nil {
		m.wg.Add(1)
		go m.acceptLoop()
	}

	mergeErr := m.mergeLoop()

	// Let in-flight watermark writers deliver the final watermark before
	// the control connections close, so a draining splitter observes
	// completion rather than an abrupt loss.
	close(m.wmStop)
	m.teardown()
	m.wg.Wait()
	// Every producer has exited (readers parked mid-batch were woken by
	// teardown's closed+wakeAll and released their in-hand references on
	// the way out), so the rings are quiescent: drain them and the reorder
	// heaps single-threaded, returning every still-held block reference to
	// the transport pool.
	m.drainLeftovers()

	m.ctl.Lock()
	strmErrs := m.strmErrs
	ctrlSeen := m.ctrlSeen
	m.ctl.Unlock()
	if mergeErr != nil {
		return errors.Join(append([]error{mergeErr}, strmErrs...)...)
	}
	if !ctrlSeen {
		// Original fixed-worker semantics: with no recovery protocol in
		// play, a worker stream error is the caller's problem even when
		// every tuple was released.
		return errors.Join(strmErrs...)
	}
	return nil
}

// teardown closes the listener and every attached connection and wakes all
// parked goroutines so they observe the shutdown. Queue draining happens
// after wg.Wait in run: a reader parked on a full ring or at its
// back-pressure cap still holds references for the rest of its batch, and
// only once every reader has exited is single-threaded drain safe.
func (m *Merger) teardown() {
	m.closeListener()
	m.closed.Store(true)
	m.ctl.Lock()
	for conn := range m.pending {
		conn.Close()
	}
	for rx := range m.readers {
		rx.Close()
	}
	m.epoch.Add(1)
	m.ctl.Unlock()
	m.wakeAll()
}

// drainLeftovers releases every block reference still queued in the rings
// and reorder heaps. Only called after all producers have exited.
func (m *Merger) drainLeftovers() {
	for id := range m.rings {
		for {
			it, ok := m.rings[id].Pop()
			if !ok {
				break
			}
			it.ref.Release()
		}
		for m.queues[id].len() > 0 {
			m.queues[id].popMin().ref.Release()
		}
		m.queues[id] = streamQueue{}
	}
}

// AttachInproc attaches worker id's stream over an in-process transport edge
// instead of a TCP connection; from attach onward the two are the same code.
// Call before or after Start, once per worker id while that id is unattached.
func (m *Merger) AttachInproc(id int, rx *transport.InprocReceiver) error {
	if id < 0 || id >= m.workers {
		return fmt.Errorf("runtime: merger got bad worker id %d", id)
	}
	return m.attach(id, rx)
}

// attach admits worker id's stream on rx — a TCP connection's Receiver after
// the handshake, or an in-process edge — and starts its reader: same ingest
// path, same SPSC ring, same dedup and back-pressure rules, same completion
// accounting (the attach counts toward the fixed-pipeline arrival logic, so
// a region completes when every attached edge has closed). A rejected attach
// closes rx and says why.
func (m *Merger) attach(id int, rx transport.BatchReceiver) error {
	m.ctl.Lock()
	if m.closed.Load() {
		m.ctl.Unlock()
		rx.Close()
		return errors.New("runtime: merger closed")
	}
	if m.live[id] {
		m.dupRejects.Add(1)
		m.ctl.Unlock()
		rx.Close()
		return fmt.Errorf("runtime: worker id %d already attached", id)
	}
	m.live[id] = true
	if !m.seen[id] {
		m.seen[id] = true
		m.attached++
	}
	m.readers[rx] = struct{}{}
	m.epoch.Add(1)
	// Register with the WaitGroup inside the critical section: a concurrent
	// teardown either sees this attach (and closes rx, so the reader exits
	// and run's wg.Wait covers it) or this attach sees closed and rejects —
	// never an Add racing a Wait already in progress.
	m.wg.Add(1)
	m.ctl.Unlock()
	// A (re)attaching stream restarts its ingest age.
	m.lastIngest[id].Store(time.Now().UnixNano())
	m.wakeAll()
	go m.readLoop(id, rx)
	return nil
}

// readLoop drains one worker edge into its SPSC ring, batch by batch: each
// ReceiveBatch yields every tuple already delivered (see SetRecvBatch) with
// one block reference per tuple, and ingest writes the whole batch into ring
// slots lock-free, the references passing to the merge loop when a Publish
// covers their slots. When the stream's reorder backlog is at capacity the
// ingest waits mid-batch, the reader stops receiving, and the worker's sends
// eventually block — back pressure, on either transport.
func (m *Merger) readLoop(id int, rx transport.BatchReceiver) {
	defer m.wg.Done()
	defer func() {
		m.ctl.Lock()
		m.live[id] = false
		delete(m.readers, rx)
		m.epoch.Add(1)
		m.ctl.Unlock()
		m.wakeAll()
		rx.Close()
	}()
	var batch []transport.Tuple
	for {
		var ref *transport.BlockRef
		var err error
		batch, ref, err = rx.ReceiveBatch(batch, m.recvBatch)
		if err != nil {
			if !errors.Is(err, io.EOF) && !m.closed.Load() {
				m.recordStreamErr(fmt.Errorf("runtime: merger read worker %d: %w", id, err))
			}
			return
		}
		if m.mIngestBatch != nil {
			m.mIngestBatch.Observe(float64(len(batch)))
		}
		// Stamp arrival before ingest (which may park on a full backlog):
		// the ingest age must show that this stream is delivering even while
		// the reorder backlog has no room.
		m.lastIngest[id].Store(time.Now().UnixNano())
		if !m.ingest(id, batch, ref) {
			return
		}
	}
}

// ingest writes one received batch into the free slots of the connection's
// SPSC ring with no locks and publishes it with one cursor store — earlier
// only where it is about to wake the merge loop or park, so a reader never
// sleeps, or returns, holding a filled slot the merge loop cannot see. Each
// tuple individually respects the per-tuple admission rules: the
// full-backlog wait (back pressure, the tuples staged in this batch counted),
// the always-admit exception for sequences at or below the watermark, and
// read-time dedup of already-released sequences — so dedup, watermark and
// replay accounting are identical to mutex-guarded ingest (the
// sharded-vs-locked equivalence suite pins this). Returns false when the
// merger closed mid-batch (the reader should exit); the block references of
// tuples not handed to the ring are released here. Single producer per ring:
// only connection id's reader calls this, one batch at a time.
func (m *Merger) ingest(id int, batch []transport.Tuple, ref *transport.BlockRef) bool {
	ring := m.rings[id]
	// One watermark load covers the batch: the merge loop invalidates that
	// cache line on every release, and re-reading it per tuple from 64
	// readers is pure coherence traffic. A stale (lower) value is safe on
	// both uses — a duplicate it fails to catch is swept lazily by the
	// merge loop, and a park it fails to skip re-checks a fresh load in
	// its wait predicate.
	next := m.next.Load()
	a, b := ring.Free()
	staged, unwoken := 0, false // slots filled but unpublished; published but the merge loop not woken
	publish := func() {
		if staged > 0 {
			ring.Publish(staged)
			staged, unwoken = 0, true
		}
	}
	wake := func() {
		if publish(); unwoken {
			m.wakeMerge()
			unwoken = false
		}
	}
	for i := range batch {
		seq := batch[i].Seq
		if seq < next {
			// Replay of a sequence already released: exactly-once means
			// dropping it here.
			m.deduped.Add(1)
			ref.Release()
			continue
		}
		// Block on a full backlog only while the merge can progress
		// without this reader (mergeStuck clear). If the merge is stuck,
		// the tuple carrying the sequence it needs may be *behind* the one
		// in hand in this very stream (a replay queued after a survivor's
		// backlog), so the reader must overflow the cap and keep reading
		// or the region wedges on head-of-line blocking.
		for m.streamDepth(id)+staged >= m.queueCap && seq > next &&
			!m.closed.Load() && !m.mergeStuck.Load() {
			// Earlier tuples in this batch may include the sequence the
			// merge loop is parked waiting for — publish and wake it before
			// parking ourselves, or both sides wait forever.
			wake()
			if m.mParks != nil {
				m.mParks.Inc()
			}
			m.parks[id].Park(func() bool {
				return m.streamDepth(id) >= m.queueCap && seq > m.next.Load() &&
					!m.closed.Load() && !m.mergeStuck.Load()
			})
			next = m.next.Load()
		}
		for len(a) == 0 && !m.closed.Load() {
			if a, b = b, nil; len(a) > 0 {
				break
			}
			// This Free is used up: publish it and take a fresh one. An
			// empty one is transient, not semantic back pressure — the merge
			// loop drains rings unconditionally every pass. Wake it and park
			// until a slot frees; the closed re-check keeps teardown from
			// stranding this reader.
			publish()
			if a, b = ring.Free(); len(a) == 0 {
				m.wakeMerge()
				unwoken = false
				if m.mParks != nil {
					m.mParks.Inc()
				}
				m.parks[id].Park(func() bool {
					return ring.Full() && !m.closed.Load()
				})
			}
		}
		if m.closed.Load() {
			// What is staged goes to drainLeftovers; the rest is still ours.
			publish()
			ref.ReleaseN(len(batch) - i)
			return false
		}
		a[0].t, a[0].ref = batch[i], ref // field by field: one copy, no temporary
		a = a[1:]
		staged++
	}
	wake()
	return true
}

// mergerSnap is the merge loop's cached view of the control plane,
// refreshed whenever the epoch moves.
type mergerSnap struct {
	epoch    uint64
	anyLive  bool
	attached int
	ctrlSeen bool
	ctrlLive int
	finKnown bool
	finTotal uint64
	fatal    error
}

// snapshot captures the control plane under ctl. The epoch is read under the
// same lock that every mutation bumps it under, so a snapshot is consistent:
// any change after the capture moves the epoch past snap.epoch.
func (m *Merger) snapshot() mergerSnap {
	m.ctl.Lock()
	defer m.ctl.Unlock()
	s := mergerSnap{
		epoch:    m.epoch.Load(),
		attached: m.attached,
		ctrlSeen: m.ctrlSeen,
		ctrlLive: m.ctrlLive,
		finKnown: m.finKnown,
		finTotal: m.finTotal,
		fatal:    m.fatal,
	}
	for _, l := range m.live {
		if l {
			s.anyLive = true
			break
		}
	}
	return s
}

// drainRings moves everything the readers have published into the
// consumer-private reorder queues: one Ready snapshot per ring, read in place
// and released with one cursor store. Items whose sequence fell below the
// watermark while they sat in the ring are dropped (and counted) here; the
// snapshot is bounded by the ring's capacity so a fast producer cannot pin
// the consumer on a single ring while the others back up. Returns whether
// anything moved.
//
// An in-order run skips the queue: while stream id has nothing queued, each
// slot holding the watermark is released in place as long as the watermark
// stays strictly below every other stream's head (a tie, a replayed
// duplicate, goes through the tournament). The first slot that does not
// qualify, and every one after it, is queued.
func (m *Merger) drainRings() bool {
	progressed := false
	// The watermark only moves on this goroutine: one load serves the pass.
	next, released := m.next.Load(), uint64(0)
	for id, r := range m.rings {
		a, b := r.Ready()
		if len(a) == 0 {
			continue
		}
		q := &m.queues[id]
		// With q empty its own key is headIndexEmpty: minKey is the others'.
		inPlace, bound := q.len() == 0, m.heads.minKey()
		for _, span := range [2][]mergeItem{a, b} {
			for i := range span {
				switch it := &span[i]; {
				case it.t.Seq < next:
					it.ref.Release()
					m.deduped.Add(1)
				case inPlace && it.t.Seq == next && next < bound:
					next = m.releaseOne(it, id, next)
					released++
				default:
					inPlace = false
					q.push(*it)
				}
			}
		}
		// Depth first, then the slots: between the two stores the moved items
		// count twice in streamDepth, never not at all, so a reader testing
		// the cap mid-drain can park early (the wake below corrects it) but
		// cannot overshoot.
		m.depth[id].v.Store(int64(q.len()))
		r.Release(len(a) + len(b))
		progressed = true
		m.heads.update(id, q.headKey())
		// Freed ring slots (and any swept duplicates) may unblock this
		// stream's reader — a ring-full park, or a cap park whose depth
		// the sweep just lowered.
		m.wakeStream(id)
	}
	if released > 0 {
		m.released.Add(released)
	}
	return progressed
}

// releaseRuns pops the tournament winner while its sequence is at or below
// the watermark: stale heads (cross-stream duplicates from replay, and
// same-stream duplicates the queue admitted lazily) are swept and counted,
// the head equal to the watermark is released through the sink. The (seq,
// id) tie-break reproduces the old lowest-id-first scan exactly. The winner
// releases a run: while its FIFO head is the watermark and the watermark is
// below both the next stream's head and its own spill's, the FIFO slots are
// released in place, with one depth store and one tournament update per run.
// A stale head, a spilled head or a tie pops one item through held.
func (m *Merger) releaseRuns() bool {
	progressed := false
	next, released := m.next.Load(), uint64(0)
	for {
		id := m.heads.min()
		if id < 0 || m.heads.key[id] > next {
			break
		}
		q := &m.queues[id]
		n := 0
		for bound := min(m.heads.second(), q.heapKey()); q.fifoKey() == next && next < bound; n++ {
			next = m.releaseOne(&q.fifo[q.fh], id, next)
			q.fifo[q.fh] = mergeItem{}
			q.fh++
		}
		if released += uint64(n); n > 0 {
			q.trim()
		} else {
			if m.held, n = q.popMin(), 1; m.held.t.Seq >= next {
				next = m.releaseOne(&m.held, id, next)
				released++
			} else {
				// A duplicate carrier is dropped whole: its absorbed seqs are
				// never registered, because a carrier only duplicates when its
				// connection failed before release — and then every unreleased
				// group member was replayed individually.
				m.held.ref.Release()
				m.deduped.Add(1)
			}
			m.held = mergeItem{}
		}
		qd := q.len()
		m.depth[id].v.Store(int64(qd))
		m.heads.update(id, q.headKey())
		progressed = true
		// Refill hysteresis: rewake a cap-parked reader only once its queue
		// has descended through wakeAt, not on every pop — waking at cap-1
		// buys one push before the reader re-parks, and with 64 readers
		// that is a broadcast per release. The crossing (a pop of n taking
		// the queue from qd+n to qd past wakeAt) fires exactly once per
		// descent (only this goroutine pops), and a reader parked while the
		// queue is already below wakeAt is covered by the merge loop's
		// pre-park wakeAll — it cannot stay parked while the merge sleeps.
		if qd <= m.wakeAt && m.wakeAt < qd+n {
			m.wakeStream(id)
		}
	}
	if released > 0 {
		m.released.Add(released)
	}
	return progressed
}

// releaseOne delivers it, stream id's item holding sequence next, and returns
// the new watermark: one past it, and on through the sequences a combined
// carrier absorbed (the carrier is its group's lowest seq). it must point into
// merger-owned storage (a ring slot, a FIFO slot, held): the sink's pointer
// escapes, so a local would cost a heap allocation per tuple.
func (m *Merger) releaseOne(it *mergeItem, id int, next uint64) uint64 {
	next++
	for i, n := 0, it.t.AbsorbedCount(); i < n; i++ {
		m.absorbed[it.t.AbsorbedSeq(i)] = struct{}{}
	}
	for len(m.absorbed) > 0 {
		if _, ok := m.absorbed[next]; !ok {
			break
		}
		delete(m.absorbed, next)
		next++
		m.combined.Add(1)
	}
	m.next.Store(next)
	m.sink(&it.t, id)
	it.ref.Release() // the sink has returned: the receive block can recycle
	return next
}

// ringsEmpty reports whether every ingest ring is (momentarily) drained.
// Consumer-side: may answer a stale yes for a push racing this check, which
// the park protocol tolerates (the pusher's wakeAll covers it).
func (m *Merger) ringsEmpty() bool {
	for _, r := range m.rings {
		if r.Len() > 0 {
			return false
		}
	}
	return true
}

// anyAtCap reports whether any stream's backlog has reached the
// back-pressure cap — the precondition for a reader being parked in
// ingest's cap wait. Merge loop only: queue depths are this goroutine's own
// writes and ring occupancy is read atomically, so a reader that crossed
// the cap before parking is always visible here (and one that crosses
// after pushes first, which forces another drain pass before the park).
func (m *Merger) anyAtCap() bool {
	for id := range m.queues {
		if m.streamDepth(id) >= m.queueCap {
			return true
		}
	}
	return false
}

// heapsEmpty reports whether every reorder queue is empty. Merge loop only.
func (m *Merger) heapsEmpty() bool {
	for id := range m.queues {
		if m.queues[id].len() > 0 {
			return false
		}
	}
	return true
}

// mergeLoop releases tuples in strict sequence order. It is the single
// consumer of every ring: drain, release, and only then — with nothing to
// do — consult the (snapshotted) control plane for completion or park for
// more input. Terminal decisions re-fence against the epoch so a stream
// attaching or a FIN arriving between the snapshot and the decision forces
// another pass instead of a premature verdict.
func (m *Merger) mergeLoop() error {
	snap := m.snapshot()
	for {
		if m.epoch.Load() != snap.epoch {
			snap = m.snapshot()
		}
		if snap.fatal != nil {
			return snap.fatal
		}
		if m.closed.Load() {
			return errors.New("runtime: merger closed")
		}

		progressed := m.drainRings()
		if m.releaseRuns() {
			progressed = true
		}
		if progressed {
			// Readers parked on this pass's state changes were woken
			// selectively inside drainRings/releaseRuns; anything missed is
			// caught by the wakeAll below once progress stops.
			continue
		}

		if snap.finKnown && m.next.Load() >= snap.finTotal {
			return nil
		}
		// Nothing matched. Can the tuple we need still arrive? Yes while
		// any worker stream is live, while the splitter's control channel
		// is (or may yet be) open, or — without a control channel — while
		// the initial worker set is still attaching.
		canArrive := snap.anyLive ||
			(snap.ctrlSeen && snap.ctrlLive > 0) ||
			(!snap.ctrlSeen && snap.attached < m.workers)
		if !canArrive {
			// Terminal decision: re-fence against a membership change or a
			// push that landed after the drain above.
			if m.epoch.Load() != snap.epoch || !m.ringsEmpty() {
				continue
			}
			if m.heapsEmpty() && !snap.finKnown {
				return nil
			}
			return fmt.Errorf("runtime: merger missing sequence %d at end of streams", m.next.Load())
		}
		// Park until input or a membership change.
		epoch := snap.epoch
		idle := func() bool {
			return m.ringsEmpty() && !m.closed.Load() && m.epoch.Load() == epoch
		}
		if m.anyAtCap() {
			// A stream at its back-pressure cap while the merge cannot
			// release is ambiguous. Almost always the needed sequence is
			// simply still in flight on another stream and arrives within
			// microseconds — so first wait briefly with the cap enforced.
			// Waiving it eagerly here is ruinous: every momentary consumer
			// nap would let 64 readers dump their socket backlogs far past
			// queueCap, destroying the blocking signal the balancer reads
			// and burning the merge loop on growing and zeroing queue slabs.
			// But the wait must be bounded: the needed sequence may be
			// *behind* a cap-parked reader's tuple in its own stream (a
			// replay queued after a survivor's backlog), and only that
			// reader can deliver it. If the poll expires with the merge
			// still wedged, declare it stuck so cap-parked readers overflow
			// instead of parking (see ingest), and wake them to re-evaluate.
			// The poll-sleep deliberately yields the CPU to the readers.
			// A waiver inside the last capWaiveHot marks an ongoing wedge
			// (a replay drain head-blocks once per buried sequence) and
			// skips straight to waiving again.
			if time.Since(m.lastWaive) > capWaiveHot {
				for end := time.Now().Add(capWaiveDelay); idle() && time.Now().Before(end); {
					time.Sleep(capWaivePoll)
				}
				if !idle() {
					continue
				}
			}
			m.lastWaive = time.Now()
			m.mergeStuck.Store(true)
		}
		m.wakeAll()
		m.mergePark.Park(idle)
		m.mergeStuck.Store(false)
		if m.mWakes != nil {
			m.mWakes.Inc()
		}
	}
}

// Wait blocks until merging completes and returns the first error.
func (m *Merger) Wait() error {
	<-m.done
	return m.err
}

// Close shuts the listener and aborts the merge.
func (m *Merger) Close() {
	m.closeListener()
	m.closed.Store(true)
	m.ctl.Lock()
	m.epoch.Add(1)
	m.ctl.Unlock()
	m.wakeAll()
}
