package runtime

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/schedule"
	"streambalance/internal/stats"
	"streambalance/internal/transport"
)

// Source supplies tuple payloads to the splitter. Returning ok=false ends
// the stream. The returned payload must not be mutated after the call
// returns: the splitter holds it by reference until it is written, which may
// be several calls later (a round is written at its end, and a congested TCP
// edge holds its output across rounds), and with recovery enabled until the
// merger's watermark passes the tuple, in case it must be replayed to a
// surviving worker.
type Source func(seq uint64) (payload []byte, ok bool)

// ConstantSource emits the same payload for n tuples (n == 0 means
// unbounded).
func ConstantSource(payload []byte, n uint64) Source {
	return func(seq uint64) ([]byte, bool) {
		if n > 0 && seq >= n {
			return nil, false
		}
		return payload, true
	}
}

// KeyedSource supplies keyed tuple payloads. Key 0 means unkeyed: the tuple
// routes through the weighted round-robin like any Source tuple and never
// combines. Non-zero keys route through the configured KeyRouter. The same
// ownership rule as Source applies to payloads: never mutate one after the
// call returns.
type KeyedSource func(seq uint64) (key uint64, payload []byte, ok bool)

// ConnEvent reports a recovery event on one splitter connection.
type ConnEvent struct {
	// Kind is "down" (connection failed), "replay" (its unreleased tuples
	// were re-sent to survivors), "rejoin" (a redial succeeded and the
	// worker was re-admitted), "quarantine" (the merge-stall check ejected
	// the worker), "evicted" (the quarantine circuit breaker
	// retired the worker permanently) or "redial-exhausted" (the redial
	// attempt budget ran out; the worker stays gone). All kinds are emitted
	// from the splitter's send loop except "redial-exhausted", which is
	// emitted from the redial goroutine.
	Kind string
	// Conn is the stable worker index (position in WorkerAddrs).
	Conn int
	// Tuples counts replayed tuples (Kind "replay").
	Tuples int
	// Err is the failure cause (Kinds "down" and "redial-exhausted").
	Err error
}

// SplitterConfig configures a Splitter.
type SplitterConfig struct {
	// WorkerAddrs are the worker PE endpoints, one connection each.
	WorkerAddrs []string
	// Senders, when set, supplies pre-built transport edges (one per worker)
	// instead of dialing WorkerAddrs — the in-process region path, where each
	// entry is an InprocSender wired straight into a worker goroutine. The
	// splitter schedules, measures blocking and balances over them exactly as
	// it does over TCP connections; what it cannot do is recovery, which is
	// inherently a remote-process concern (control channel, replay, redial),
	// so Senders is mutually exclusive with WorkerAddrs and ControlAddr.
	Senders []transport.BatchSender
	// Source feeds the splitter. Exactly one of Source and KeyedSource is
	// required.
	Source Source
	// KeyedSource feeds the splitter with keyed tuples; non-zero keys route
	// through Router instead of the weighted round-robin. Mutually exclusive
	// with Source.
	KeyedSource KeyedSource
	// Router places non-zero keys on connections when KeyedSource is set
	// (default: PKG, two choices per key). When a Balancer is also
	// configured, routers implementing schedule.LoadAware receive each
	// tick's sampled blocking rates as penalties, steering the
	// least-loaded pick away from blocked connections — the keyed analogue
	// of the minimax balancer's weight updates. Replays after a failure
	// bypass the router (any survivor may carry a Solo replay; ordering and
	// exactly-once are the merger's job, and Solo tuples never combine).
	Router schedule.KeyRouter
	// Balancer, when set, drives dynamic weights from sampled blocking
	// rates. Nil means fixed even round-robin.
	Balancer *core.Balancer
	// SampleInterval is the collection interval (default
	// DefaultSampleInterval): how often the send loop, between two rounds,
	// turns its own blocking counters into rates and weights.
	SampleInterval time.Duration
	// OnSample, when set, observes each tick. It runs on the send loop
	// between two rounds, so it must not block: no tuple moves until it
	// returns. With recovery enabled the rates/weights vectors track the
	// live connection set, so their length can change between ticks.
	OnSample func(now time.Duration, rates []float64, weights []int)
	// BatchSize is the round length: the unkeyed tuples of a round of up to
	// BatchSize consecutive sequence numbers are a run, sent to one weighted
	// round-robin pick, so weights are exact over runs, not tuples (keyed
	// tuples keep their per-tuple router pick). <= 1 (the default) is a
	// round of one: every tuple is its own pick. At the end of a round each
	// connection writes what the round gave it, as one flush and one Section
	// 3 elect-to-block episode, unless its edge is congested: a TCP edge
	// whose socket blocked in the last sample interval (one the loop did not
	// spend nearly all parked) holds its output, keyed tuples included, until
	// a round end at which it holds at least DefaultSocketBuffer/4, and
	// writes it then. A run's pick waits first while its connection holds
	// its in-flight bound (DESIGN §4b). Larger rounds raise throughput and
	// coarsen the balancer's granularity (see DESIGN §4b).
	BatchSize int

	// ControlAddr, when set, enables recovery: the splitter opens a side
	// connection to the merger at this address, receives released
	// watermarks, retains unreleased tuples, and on a connection failure
	// replays the dead connection's unreleased tuples to survivors
	// instead of failing the region.
	ControlAddr string
	// OnConnEvent observes recovery events. Optional; called from the
	// splitter's send loop (except "redial-exhausted", see ConnEvent).
	OnConnEvent func(ConnEvent)
	// Metrics, when set, exports the splitter's blocking signal, the
	// balancer's decisions and recovery events through the observability
	// layer. Nil disables instrumentation.
	Metrics *RegionMetrics
	// Timeouts bounds the splitter's I/O: worker and control dials, the
	// worker ready-ACK probe, control-channel reads/writes and the
	// per-flush send stall. Zero fields select the defaults; negative
	// fields disable the corresponding deadline.
	Timeouts Timeouts
	// Recovery sets the replay buffer, redial policy, merge-stall window and
	// quarantine budget, with RegionConfig's meanings and defaults. Only
	// meaningful with ControlAddr set; without it nothing redials. Enabled
	// and WatermarkInterval belong to the region.
	Recovery RecoveryConfig
}

// DefaultSocketBuffer is the kernel buffer size requested for both ends of
// every TCP splitter→worker connection: the splitter's send buffer and the
// worker's receive buffer. The blocking-time signal only exists when the
// buffers are small relative to the workload: with gigantic buffers the
// kernel absorbs everything and no send ever blocks — the paper's "numerous
// system buffers" caveat (Section 4.4). It has a floor too: on loopback a
// receive window below about 64 KiB makes a send wait out the kernel's
// zero-window persist timer, and that wait would count as the worker's
// blocking. A congested edge holds its output until it reaches a quarter of
// it (see SplitterConfig.BatchSize).
const DefaultSocketBuffer = 64 << 10

// DefaultSampleInterval is the splitter's collection interval.
const DefaultSampleInterval = 100 * time.Millisecond

// holdParkedShare is the share of a sample interval the send loop may spend
// parked in writes before no edge holds output in the next one. Holding saves
// write(2) time only while the loop spends time writing; parked nearly the
// whole interval, behind one slow worker, it has none to save, and holding
// only delays tuples the merger may be waiting for (DESIGN §4b).
const holdParkedShare = 0.9

// DefaultRetainCap bounds the replay buffer (tuples retained above the
// released watermark).
const DefaultRetainCap = 16384

// splitConn is one live worker edge with its stable identity. conn is the
// underlying socket on the TCP transport and nil on the in-process transport
// (which has no socket to read).
type splitConn struct {
	id       int // stable worker index; survives rejoin
	addr     string
	conn     net.Conn
	sender   transport.BatchSender
	dialedAt time.Time

	// acks is the worker's running count of this connection's tuples it has
	// forwarded (transport/acks.go): the in-proc edge's own, on TCP the
	// answer to the hello (readAnswer) and then readAcks's, nil on a given
	// socket sender, which has no reader. Only a connection whose worker
	// acks (Acking) is waited on. bound caps the tuples routed here and not
	// acked (setBounds).
	// prevAcked is acks at the last tick. waited and waits total the credit
	// waits (awaitCredit), which are this connection's blocking as much as a
	// full socket's are; sockBlocking is the sender's own blocking at the
	// last tick. bound, waited and waits are atomic
	// because a scrape reads them.
	acks         *transport.Acks
	prevAcked    uint64
	bound        atomic.Int64
	waited       atomic.Int64
	waits        atomic.Int64
	sockBlocking time.Duration

	// out is the connection's pending output: the tuples the send loop
	// routed to it and has not written yet, in ascending sequence order,
	// written in one flush (writeOut). congested is set by tick on a TCP
	// edge whose socket blocked in the last sample interval; while it is set,
	// outBytes counts out's encoded size and out is held across rounds.
	// removeConn empties out and sets retired: the retain entries already
	// name the connection, so its replay re-sends those tuples, and a round
	// whose run it carried picks again.
	out       []transport.Tuple
	outBytes  int
	congested bool
	retired   bool
}

// Splitter distributes tuples across worker connections by smooth weighted
// round-robin, measuring per-connection blocking, and (optionally) balances:
// as in the paper (Sections 3 and 5) one thread sends, elects to block, times
// the wait and periodically turns its own counters into weights. With
// recovery enabled it also retains unreleased tuples and replays them across
// surviving connections when a worker dies.
//
// Everything below is owned by the send loop and touched by nothing else
// once Start has run, except where a field says otherwise.
type Splitter struct {
	cfg SplitterConfig
	wrr *schedule.WRR
	// src unifies Source and KeyedSource (unkeyed sources yield key 0).
	src KeyedSource
	// router places non-zero keys; nil for unkeyed splitters. Its index
	// space, like the WRR's, the balancer's and the samplers', mirrors the
	// live-connection positions: removeConn and admitRejoin edit all of
	// them together.
	router   schedule.KeyRouter
	samplers *stats.SamplerSet
	// keyedSent counts router-placed tuples per stable worker id (atomic:
	// KeyedStats may read it from another goroutine); prevKeyed is its value
	// at the previous tick, for the key-imbalance gauge.
	keyedSent []atomic.Int64
	prevKeyed []int64
	to        Timeouts

	// mu orders the send loop's edits of the live set and of the retired
	// connections' folded totals against the goroutines that read them
	// (Close, Senders, ConnStats, a metrics scrape). The loop, their only
	// writer, reads them without it, and never holds it across a flush, so
	// a reader cannot wait on a parked send.
	mu          sync.Mutex
	conns       []*splitConn
	aggSent     []int64
	aggBlocking []time.Duration
	aggBlocked  []int64
	started     bool
	closedIdle  bool

	// Metrics state: per-stable-id pre-resolved handles, and the WRR pick
	// count last published (loop-private, so pushed per tick, not scraped).
	mtr      *RegionMetrics
	cm       []connInstruments
	pubPicks int64

	// Recovery state, owned by the send loop. quarCount tracks how many
	// times each stable worker id has been quarantined (circuit-breaker
	// input); it is touched only on the send loop.
	ctrl      *controlLink
	retained  []retainEntry
	retHead   int
	downErrs  []error
	quarCount []int

	// holdBytes is what a congested edge holds before a round end writes
	// its output: DefaultSocketBuffer/4. A field, not the constant, so a
	// test can pin a smaller hold.
	holdBytes int

	// The in-flight bound's state, owned by the send loop: the region's
	// smoothed forward rate in tuples/s (0 until a tick has measured one),
	// the tick it was last measured at, and the one timer every credit wait
	// reuses for its SendStall bound, with the wait's deadline (moved on by
	// each ack).
	rate        float64
	rateAt      time.Duration
	creditTimer *time.Timer
	creditLimit time.Time

	// Merge-stall check state, owned by the send loop: the ticker driving
	// the check (nil when disabled), the watermark it last saw, when the
	// stall clock last restarted, and when the open stall episode began
	// (zero when none is open).
	stallTick  <-chan time.Time
	stallWM    uint64
	stallSince time.Time
	stallFrom  time.Time

	deadCh   chan *splitConn
	rejoinCh chan rejoin
	stop     chan struct{}
	stopOnce sync.Once

	done     chan struct{}
	err      error
	startedT time.Time
}

// NewSplitter dials every worker (and, in recovery mode, the control
// channel). With cfg.Senders set it dials nothing and schedules over the
// supplied transport edges instead.
func NewSplitter(cfg SplitterConfig) (*Splitter, error) {
	n := len(cfg.WorkerAddrs)
	if len(cfg.Senders) > 0 {
		if n > 0 {
			return nil, errors.New("runtime: WorkerAddrs and Senders are mutually exclusive")
		}
		if cfg.ControlAddr != "" {
			return nil, errors.New("runtime: recovery requires the TCP transport (Senders set with ControlAddr)")
		}
		n = len(cfg.Senders)
	}
	if n == 0 {
		return nil, errors.New("runtime: splitter needs worker addresses or senders")
	}
	if cfg.Source == nil && cfg.KeyedSource == nil {
		return nil, errors.New("runtime: splitter needs a source")
	}
	if cfg.Source != nil && cfg.KeyedSource != nil {
		return nil, errors.New("runtime: Source and KeyedSource are mutually exclusive")
	}
	if cfg.Router != nil && cfg.KeyedSource == nil {
		return nil, errors.New("runtime: Router requires KeyedSource")
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = DefaultSampleInterval
	}
	cfg.Recovery = cfg.Recovery.norm()
	if cfg.ControlAddr == "" {
		// Nothing is replayed without a control channel, so nothing redials.
		cfg.Recovery.Redial = nil
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	wrr, err := schedule.NewWRR(n)
	if err != nil {
		return nil, err
	}
	sp := &Splitter{
		cfg:         cfg,
		wrr:         wrr,
		samplers:    stats.NewSamplerSet(n, 0),
		keyedSent:   make([]atomic.Int64, n),
		prevKeyed:   make([]int64, n),
		to:          cfg.Timeouts.norm(),
		quarCount:   make([]int, n),
		holdBytes:   DefaultSocketBuffer / 4,
		aggSent:     make([]int64, n),
		aggBlocking: make([]time.Duration, n),
		aggBlocked:  make([]int64, n),
		deadCh:      make(chan *splitConn, 4*n+4),
		rejoinCh:    make(chan rejoin, n+1),
		creditTimer: time.NewTimer(time.Hour),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	sp.creditTimer.Stop()
	if cfg.KeyedSource != nil {
		sp.src = cfg.KeyedSource
		sp.router = cfg.Router
		if sp.router == nil {
			sp.router, err = schedule.NewPKGRouter(n)
			if err != nil {
				return nil, err
			}
		}
		if sp.router.N() != n {
			return nil, fmt.Errorf("runtime: router covers %d connections, splitter has %d", sp.router.N(), n)
		}
	} else {
		src := cfg.Source
		sp.src = func(seq uint64) (uint64, []byte, bool) {
			payload, ok := src(seq)
			return 0, payload, ok
		}
	}
	initial := core.EvenWeights(n, core.DefaultUnits)
	if err := sp.wrr.SetWeights(initial); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		sp.mtr = cfg.Metrics
		sp.cm = make([]connInstruments, n)
		for i := 0; i < n; i++ {
			sp.cm[i] = cfg.Metrics.conn(i)
			sp.cm[i].up.Set(1)
			sp.cm[i].weight.Set(float64(initial[i]))
			cfg.Metrics.bindConnTotals(i, sp)
		}
	}
	// The metrics bindings above already read sp.conns from any scrape, so
	// each append takes sp.mu.
	if len(cfg.Senders) > 0 {
		for i, sender := range cfg.Senders {
			sender.SetStallTimeout(sp.to.SendStall)
			c := &splitConn{id: i, sender: sender, dialedAt: time.Now()}
			if in, ok := sender.(*transport.InprocSender); ok {
				c.acks = in.Acks()
			}
			sp.mu.Lock()
			sp.conns = append(sp.conns, c)
			sp.mu.Unlock()
		}
	} else {
		for i, addr := range cfg.WorkerAddrs {
			conn, err := sp.dialWorker(addr)
			if err != nil {
				sp.closeSenders(false)
				return nil, fmt.Errorf("runtime: splitter dial worker %d: %w", i, err)
			}
			sender, err := transport.NewSender(conn)
			if err != nil {
				conn.Close()
				sp.closeSenders(false)
				return nil, fmt.Errorf("runtime: splitter wrap worker %d: %w", i, err)
			}
			sender.SetStallTimeout(sp.to.SendStall)
			c := &splitConn{id: i, addr: addr, conn: conn, sender: sender, dialedAt: time.Now()}
			sp.mu.Lock()
			sp.conns = append(sp.conns, c)
			sp.mu.Unlock()
		}
	}
	sp.setBounds(initial)
	if cfg.ControlAddr != "" {
		// Consume every worker's ready ACK before the readers start (they
		// parse credit frames only). This doubles as the admission health
		// check: a worker that cannot reach the merger within the probe
		// deadline never enters the schedule.
		for _, c := range sp.conns {
			if err := sp.probeReady(c.conn); err != nil {
				sp.closeSenders(false)
				return nil, fmt.Errorf("runtime: splitter probe worker %d: %w", c.id, err)
			}
		}
	}
	// Every worker answers the ack hello before the first tuple, so each
	// bound holds from the first tuple (after the ready ACK: the worker
	// answers from its receive loop).
	for _, c := range sp.conns {
		if c.conn == nil {
			continue
		}
		acks, err := sp.readAnswer(c.conn)
		if err != nil {
			sp.closeSenders(false)
			return nil, fmt.Errorf("runtime: splitter worker %d: %w", c.id, err)
		}
		sp.mu.Lock()
		c.acks = acks
		sp.mu.Unlock()
	}
	if cfg.ControlAddr != "" {
		ctrl, err := dialControl(cfg.ControlAddr, sp.to)
		if err != nil {
			sp.closeSenders(false)
			return nil, err
		}
		sp.ctrl = ctrl
	}
	return sp, nil
}

// dialWorker dials one worker endpoint, applies the socket buffer size and
// asks the worker for credit frames (its answer is read by readAnswer).
func (sp *Splitter) dialWorker(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, sp.to.dialTimeout())
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.SetWriteBuffer(DefaultSocketBuffer); err != nil {
			conn.Close()
			return nil, fmt.Errorf("set buffer: %w", err)
		}
	}
	if err := transport.WriteAckHello(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ack hello: %w", err)
	}
	return conn, nil
}

// readAnswer reads the worker's answer to the ack hello, under the IO
// deadline, into the connection's Acks: acking from 0, or not at all (a
// consumer that does not ack is never waited on).
func (sp *Splitter) readAnswer(conn net.Conn) (*transport.Acks, error) {
	if sp.to.IO > 0 {
		conn.SetReadDeadline(time.Now().Add(sp.to.IO))
		defer conn.SetReadDeadline(time.Time{})
	}
	acks := transport.NewAcks()
	if err := transport.ReadAckAnswer(conn, acks); err != nil {
		return nil, fmt.Errorf("ack answer: %w", err)
	}
	return acks, nil
}

// closeSenders closes every live connection. With drain set it first
// half-closes each TCP one and lets its reader take the worker's last credits
// up to the end of stream (drainAcks): closing a socket with unread bytes
// sends a reset, and a reset discards the worker's unread input.
func (sp *Splitter) closeSenders(drain bool) {
	sp.mu.Lock()
	conns := append([]*splitConn(nil), sp.conns...)
	sp.mu.Unlock()
	if drain {
		var wg sync.WaitGroup
		for _, c := range conns {
			if tc, ok := c.conn.(*net.TCPConn); ok {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sp.drainAcks(tc, c.acks)
				}()
			}
		}
		wg.Wait()
	}
	for _, c := range conns {
		c.sender.Close()
	}
}

// drainAcks half-closes conn and waits until its reader has taken the end of
// the worker's stream. Like a credit wait it gives up only on a worker that
// acks nothing for SendStall: a worker still working through what it holds
// moves the read deadline on with each ack, however long its queue.
func (sp *Splitter) drainAcks(conn *net.TCPConn, acks *transport.Acks) {
	// A connection that fails either call has ended already, and its reader
	// with it.
	_ = conn.CloseWrite()
	for {
		if sp.to.SendStall > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(sp.to.SendStall))
		}
		select {
		case <-acks.Bell():
		case <-acks.Done():
			return
		}
	}
}

// Close releases the connections of a splitter that was constructed but
// never started. It is a no-op once Start has run (the send loop owns the
// teardown then).
func (sp *Splitter) Close() {
	sp.mu.Lock()
	if sp.started || sp.closedIdle {
		sp.mu.Unlock()
		return
	}
	sp.closedIdle = true
	sp.mu.Unlock()
	sp.closeSenders(false)
	if sp.ctrl != nil {
		sp.ctrl.Close()
	}
	sp.stopOnce.Do(func() { close(sp.stop) })
}

// Start launches the send loop.
func (sp *Splitter) Start() {
	sp.mu.Lock()
	sp.started = true
	conns := append([]*splitConn(nil), sp.conns...)
	sp.mu.Unlock()
	sp.startedT = time.Now()
	for _, c := range conns {
		if c.conn != nil {
			go sp.readAcks(c)
		}
	}
	go func() {
		defer close(sp.done)
		sp.err = sp.sendLoop()
		if sp.stallTick != nil {
			// The stream may have completed inside an open stall episode.
			sp.stallAdvanced(time.Now())
		}
		if sp.mtr != nil {
			sp.publishPicks() // the run may have ended between ticks
			sp.publishReplayDepth()
		}
		sp.stopOnce.Do(func() { close(sp.stop) })
		// With recovery the watermark has shown every tuple released, so
		// nothing a worker has not read is still needed.
		sp.closeSenders(sp.err == nil && !sp.recovery())
		if sp.ctrl != nil {
			sp.ctrl.Close()
		}
	}()
}

func (sp *Splitter) recovery() bool {
	return sp.ctrl != nil
}

// sendLoop is the splitter's single thread of control; one pass reads tick →
// events → round → write. The collection interval (tick) and all membership
// changes (failures, replays, rejoins) happen here, between rounds. A round
// admits up to BatchSize consecutive sequence numbers and appends each to its
// connection's pending output as it goes: a keyed one to the key router's
// pick, the unkeyed ones (the run) to one WRR pick made at the round's first
// unkeyed tuple and again only if that connection is retired mid-round; the
// pick waits until its connection has room for the run (pickRun). Smooth WRR
// over runs keeps the weights exact over any total-weight consecutive runs.
// The round ends with writeOut; pending output never waits behind a tick, a
// retention wait, a credit wait, the merge-stall check or the drain.
func (sp *Splitter) sendLoop() error {
	recovery := sp.recovery()
	batch := uint64(sp.cfg.BatchSize)
	ticker := time.NewTicker(sp.cfg.SampleInterval)
	defer ticker.Stop()
	if recovery && sp.cfg.Recovery.StallWindow > 0 {
		stall := time.NewTicker(max(sp.cfg.Recovery.StallWindow/4, time.Millisecond))
		defer stall.Stop()
		sp.stallTick = stall.C
		sp.stallSince = time.Now() // the first round is the first send
	}
	var seq uint64
	for {
		select {
		case <-ticker.C:
			// The pending writes belong to the interval the tick closes, so
			// now is read after them.
			if err := sp.writeOut(false); err != nil {
				return err
			}
			if err := sp.tick(time.Since(sp.startedT)); err != nil {
				return err
			}
		default:
		}
		if recovery {
			if err := sp.pollEvents(); err != nil {
				return err
			}
		}
		var run *splitConn
		first := seq
		srcDone := false
		for seq-first < batch {
			key, payload, ok := sp.src(seq)
			if !ok {
				srcDone = true
				break
			}
			if recovery {
				if err := sp.awaitRetention(); err != nil {
					return err
				}
			}
			c := run
			if key != 0 && sp.router != nil {
				c = sp.pickFor(key)
			} else if run == nil || run.retired {
				var err error
				if run, err = sp.pickRun(); err != nil {
					return err
				}
				c = run
			}
			if c == nil {
				return sp.allDeadErr()
			}
			if recovery {
				sp.retained = append(sp.retained, retainEntry{seq: seq, key: key, conn: c.id, payload: payload})
			}
			c.out = append(c.out, transport.Tuple{Seq: seq, Key: key, Payload: payload})
			if c.congested {
				c.outBytes += transport.FrameLen(c.out[len(c.out)-1])
			}
			seq++
		}
		if err := sp.writeOut(true); err != nil {
			return err
		}
		sp.publishReplayDepth()
		if srcDone {
			break
		}
	}
	if err := sp.writeOut(false); err != nil {
		return err
	}
	if !recovery {
		return nil
	}
	return sp.drain(seq)
}

// writeOut writes each live connection's pending output in one flush. At a
// round end (roundEnd set) a congested connection holding less than holdBytes
// keeps its output, so each of its writes carries whole rounds.
func (sp *Splitter) writeOut(roundEnd bool) error {
	// A failed write retires connections, which only shifts the ones after
	// them down: walking from the end still reaches every one.
	for i := len(sp.conns) - 1; i >= 0; i-- {
		if i >= len(sp.conns) {
			continue
		}
		c := sp.conns[i]
		if roundEnd && c.congested && c.outBytes < sp.holdBytes {
			continue
		}
		if err := sp.writeConn(c); err != nil {
			return err
		}
	}
	return nil
}

// writeConn writes c's pending output, if any, in one flush.
func (sp *Splitter) writeConn(c *splitConn) error {
	if len(c.out) == 0 {
		return nil
	}
	ts := c.out
	c.out, c.outBytes = c.out[:0], 0
	return sp.flush(c, ts)
}

// flush sends one batch to c: one write, one elect-to-block episode. A
// failure in recovery mode retires c and replays its unreleased tuples, this
// batch's among them, since their retain entries already name c.
func (sp *Splitter) flush(c *splitConn, ts []transport.Tuple) error {
	err := c.sender.SendBatch(ts)
	if err == nil {
		if sp.mtr != nil {
			sp.mtr.batchFlushes.Inc()
			sp.mtr.batchTuples.Observe(float64(len(ts)))
		}
		return nil
	}
	if !sp.recovery() {
		return fmt.Errorf("runtime: flush %d tuples to worker %d: %w", len(ts), c.id, err)
	}
	return sp.handleConnFailure(c, err)
}

// pickFor returns the connection for one keyed tuple, run or replayed tuple,
// or nil when none remain: non-zero keys go through the key router,
// everything else (runs, and replays, which pass key 0 to bypass the router)
// through the weighted round-robin.
func (sp *Splitter) pickFor(key uint64) *splitConn {
	if len(sp.conns) == 0 {
		return nil
	}
	if key == 0 || sp.router == nil {
		return sp.conns[sp.wrr.Next()]
	}
	c := sp.conns[sp.router.Route(key)]
	sp.keyedSent[c.id].Add(1)
	return c
}

// findLive: send loop, or any goroutine holding sp.mu.
func (sp *Splitter) findLive(id int) *splitConn {
	for _, c := range sp.conns {
		if c.id == id {
			return c
		}
	}
	return nil
}

// tick is one collection interval, run by the send loop between two rounds,
// after it has written every pending output: it differences the connections'
// lifetime blocking (their senders' and their credit waits') into rates,
// steps the balancer, installs the new weights, measures the region's forward
// rate from the workers' acks and sets each connection's in-flight bound from
// both, and marks the TCP edges whose sockets blocked as congested for the
// next interval. No flush or credit wait is in progress while it runs, so
// every blocking episode it sees is whole and the rates of one interval sum
// to at most 1 — the one sending thread cannot be blocked twice at once —
// which is what Balancer.Step's blocked fraction assumes.
//
// The gate is per connection: an in-proc edge has no write system call to
// save, and an edge whose socket did not block writes at each round end even
// while the thread was parked on another, or waited for its credit. Nothing
// is held after an interval the thread spent at least holdParkedShare parked.
func (sp *Splitter) tick(now time.Duration) error {
	cumulative := make([]time.Duration, len(sp.conns))
	var acked uint64
	for j, c := range sp.conns {
		cumulative[j] = c.blocking()
		if c.acks != nil {
			n := c.acks.Load()
			acked += n - c.prevAcked
			c.prevAcked = n
		}
	}
	sp.measureRate(acked, now)
	rates, _ := sp.samplers.Sample(now, cumulative)
	parked := 0.0
	for _, r := range rates {
		parked += r
	}
	for _, c := range sp.conns {
		_, tcp := c.sender.(*transport.Sender)
		sock := c.sender.TotalBlocking()
		c.congested = tcp && sock > c.sockBlocking && parked < holdParkedShare
		c.sockBlocking = sock
	}
	b := sp.cfg.Balancer
	if sp.router != nil {
		// With a balancer configured, feed the sampled blocking rates to
		// load-aware routers as penalties: the least-loaded candidate pick
		// then discounts connections that spent the interval blocked — the
		// keyed analogue of the minimax balancer shifting weight away from
		// them. Without a balancer the router stays purely count-based.
		if la, ok := sp.router.(schedule.LoadAware); ok && b != nil && sp.router.N() == len(rates) {
			la.SetPenalties(rates)
		}
		if sp.mtr != nil {
			sp.mtr.keyImbalance.Set(sp.keyImbalance())
		}
	}
	weights := sp.wrr.Weights()
	stepped := false
	if b != nil && b.Connections() == len(rates) {
		if w, err := b.Step(rates); err == nil {
			if err := sp.wrr.SetWeights(w); err != nil {
				return fmt.Errorf("runtime: apply weights: %w", err)
			}
			weights, stepped = w, true
		}
	}
	sp.setBounds(weights)
	if sp.mtr != nil {
		for j, c := range sp.conns {
			sp.cm[c.id].rate.Set(rates[j])
			if c.congested {
				sp.cm[c.id].coalescing.Set(1)
			} else {
				sp.cm[c.id].coalescing.Set(0)
			}
			if j < len(weights) {
				sp.cm[c.id].weight.Set(float64(weights[j]))
			}
		}
		if stepped {
			sp.mtr.rebalance(weights, b.LastObjective(), b.LastIterations(), len(b.LastClusters()))
		}
		sp.publishPicks()
	}
	if sp.cfg.OnSample != nil {
		sp.cfg.OnSample(now, rates, weights)
	}
	return nil
}

// Wait blocks until the send loop finishes (source exhausted, and in
// recovery mode fully released; or error) and all connections are closed.
func (sp *Splitter) Wait() error {
	<-sp.done
	return sp.err
}

// Senders exposes the live per-connection senders (for metrics inspection).
func (sp *Splitter) Senders() []transport.BatchSender {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]transport.BatchSender, 0, len(sp.conns))
	for _, c := range sp.conns {
		out = append(out, c.sender)
	}
	return out
}

// publishPicks pushes the WRR's pick count growth since the last publish.
func (sp *Splitter) publishPicks() {
	picks := sp.wrr.Picks()
	sp.mtr.schedulePicks.Add(float64(picks - sp.pubPicks))
	sp.pubPicks = picks
}

// keyImbalance computes (max-mean)/mean of the live connections'
// router-placed assignments since the previous tick (0 when perfectly even
// or when no keyed tuples moved), and rolls prevKeyed forward.
func (sp *Splitter) keyImbalance() float64 {
	sent := sp.KeyedStats()
	var max, sum int64
	for _, c := range sp.conns {
		d := sent[c.id] - sp.prevKeyed[c.id]
		sum += d
		if d > max {
			max = d
		}
	}
	sp.prevKeyed = sent
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(sp.conns))
	return (float64(max) - mean) / mean
}

// KeyedStats returns the lifetime count of router-placed tuples per stable
// worker id (zero everywhere for unkeyed splitters).
func (sp *Splitter) KeyedStats() []int64 {
	out := make([]int64, len(sp.keyedSent))
	for id := range out {
		out[id] = sp.keyedSent[id].Load()
	}
	return out
}

// connTotals returns stable worker id's lifetime totals: what its retired
// connections folded in plus its live sender's own counters. Any goroutine
// may call it (a metrics scrape does); exact and monotone at every call,
// because removeConn folds and removes under the same lock.
func (sp *Splitter) connTotals(id int) (sent int64, blocking time.Duration, wouldBlock int64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sent, blocking, wouldBlock = sp.aggSent[id], sp.aggBlocking[id], sp.aggBlocked[id]
	if c := sp.findLive(id); c != nil {
		sent += c.sender.Sent()
		blocking += c.blocking()
		wouldBlock += c.blockEvents()
	}
	return sent, blocking, wouldBlock
}

// ConnStats returns per-worker lifetime tuple and blocking totals, indexed
// by the stable worker id and summed across reconnections.
func (sp *Splitter) ConnStats() (sent []int64, blocking []time.Duration) {
	sent = make([]int64, len(sp.aggSent)) // sized once, at construction
	blocking = make([]time.Duration, len(sent))
	for id := range sent {
		sent[id], blocking[id], _ = sp.connTotals(id)
	}
	return sent, blocking
}
