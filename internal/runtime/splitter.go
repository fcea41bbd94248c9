package runtime

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/metrics"
	"streambalance/internal/schedule"
	"streambalance/internal/stats"
	"streambalance/internal/transport"
)

// Source supplies tuple payloads to the splitter. Returning ok=false ends
// the stream. The returned payload must not be mutated after the call
// returns: the splitter holds it by reference until it is written, which may
// be several calls later (a run is written whole, and a congested TCP edge
// holds runs across rounds), and with recovery enabled until the merger's
// watermark passes the tuple, in case it must be replayed to a surviving
// worker.
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
	// SampleInterval is the collection interval (default 1s; tests use much
	// shorter): how often the send loop, between two rounds, turns its own
	// blocking counters into rates and weights.
	SampleInterval time.Duration
	// OnSample, when set, observes each tick. It runs on the send loop
	// between two rounds, so it must not block: no tuple moves until it
	// returns. With recovery enabled the rates/weights vectors track the
	// live connection set, so their length can change between ticks.
	OnSample func(now time.Duration, rates []float64, weights []int)
	// SocketBufferBytes sizes the kernel send buffer of each worker
	// connection (default DefaultSocketBuffer). The blocking-time signal
	// only exists when the buffers are small relative to the workload:
	// with gigantic buffers the kernel absorbs everything and no send ever
	// blocks — the paper's "numerous system buffers" caveat (Section 4.4).
	// A quarter of it also bounds one write to a congested TCP edge (see
	// BatchSize).
	SocketBufferBytes int
	// BatchSize is the run length: a run of up to BatchSize consecutive
	// sequence numbers goes to one weighted round-robin pick, so weights are
	// exact over runs, not tuples (keyed tuples keep their per-tuple router
	// pick). <= 1 (the default) is a run of one: every tuple is its own pick.
	// A run is written at once, as one flush and one Section 3
	// elect-to-block episode, unless its edge is congested: a TCP edge that
	// blocked in the last sample interval (one the loop did not spend
	// nearly all parked) holds its runs and writes them together, up to
	// SocketBufferBytes/4 a write. Larger runs raise
	// throughput and coarsen the balancer's granularity (see DESIGN §4b).
	BatchSize int

	// ControlAddr, when set, enables recovery: the splitter opens a side
	// connection to the merger at this address, receives released
	// watermarks, retains unreleased tuples, and on a connection failure
	// replays the dead connection's unreleased tuples to survivors
	// instead of failing the region.
	ControlAddr string
	// RetainCap bounds the replay buffer in tuples (default
	// DefaultRetainCap). When it fills, the splitter blocks until the
	// watermark advances — back pressure against a lagging merger.
	RetainCap int
	// Redial, when non-nil, re-establishes failed worker connections with
	// exponential backoff and jitter; a reconnected worker rejoins the
	// schedule (and the balancer, which re-learns its capacity). Only
	// meaningful with ControlAddr set.
	Redial *transport.RedialPolicy
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
	// MaxReadmits caps how many times one worker may be quarantined and
	// still redialed: past the cap the circuit breaker retires it
	// permanently (0 selects DefaultMaxReadmits, negative is unlimited).
	// Only meaningful with ControlAddr set.
	MaxReadmits int
	// StallWindow arms the merge-stall check: when the merger's watermark
	// has not moved for this long while a sent tuple is still unreleased,
	// the splitter quarantines the connection carrying the head-of-line
	// sequence. <= 0 disables it. Only meaningful with ControlAddr set.
	StallWindow time.Duration
}

// DefaultSocketBuffer is the kernel buffer size requested per connection.
const DefaultSocketBuffer = 64 << 10

// holdParkedShare is the share of a sample interval the send loop may spend
// parked in writes before no edge holds runs in the next one. Holding saves
// write(2) time only while the loop spends time writing; parked nearly the
// whole interval, behind one slow worker, it has none to save, and holding
// only delays runs the merger may be waiting for (DESIGN §4b).
const holdParkedShare = 0.9

// DefaultRetainCap bounds the replay buffer (tuples retained above the
// released watermark).
const DefaultRetainCap = 16384

// splitConn is one live worker edge with its stable identity. conn is the
// underlying socket on the TCP transport and nil on the in-process transport
// (which has no socket to monitor).
type splitConn struct {
	id       int // stable worker index; survives rejoin
	addr     string
	conn     net.Conn
	sender   transport.BatchSender
	dialedAt time.Time

	// congested is set by tick on a TCP edge that blocked in the last sample
	// interval. Its picked runs wait in held (heldBytes encoded) and leave
	// together in one write (sendRun). A retired connection drops them: their
	// retain entries already name it, so its replay re-sends them.
	congested bool
	held      []transport.Tuple
	heldBytes int
}

// retainEntry is one sent-but-unreleased tuple in the replay buffer. conn
// is the stable id of the connection carrying it, or -1 while its run is
// still being staged. key is retained so replays carry it (flagged Solo, so a
// replayed tuple never combines with a fresh one).
type retainEntry struct {
	seq     uint64
	key     uint64
	conn    int
	payload []byte
}

// keyedStage is one connection's router-placed tuples in the current round.
type keyedStage struct {
	c  *splitConn
	ts []transport.Tuple
}

// rejoin carries a successfully redialed connection into the send loop.
type rejoin struct {
	id     int
	addr   string
	conn   net.Conn
	sender transport.BatchSender
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
	// maxReadmits is the resolved quarantine circuit-breaker budget
	// (-1 = unlimited).
	maxReadmits int

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

	// Round staging, owned by the send loop and reused across rounds: the
	// run of unkeyed tuples one WRR pick sends, and (keyed splitters only)
	// each stable id's router-placed tuples, with the ids the round touched.
	run     []transport.Tuple
	keyed   []keyedStage
	touched []int
	// holdBytes bounds one write of a congested edge's held runs:
	// SocketBufferBytes/4.
	holdBytes int

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
		cfg.SampleInterval = time.Second
	}
	if cfg.SocketBufferBytes <= 0 {
		cfg.SocketBufferBytes = DefaultSocketBuffer
	}
	if cfg.RetainCap <= 0 {
		cfg.RetainCap = DefaultRetainCap
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
		run:         make([]transport.Tuple, 0, cfg.BatchSize),
		holdBytes:   cfg.SocketBufferBytes / 4,
		aggSent:     make([]int64, n),
		aggBlocking: make([]time.Duration, n),
		aggBlocked:  make([]int64, n),
		deadCh:      make(chan *splitConn, 4*n+4),
		rejoinCh:    make(chan rejoin, n+1),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	switch {
	case cfg.MaxReadmits == 0:
		sp.maxReadmits = DefaultMaxReadmits
	case cfg.MaxReadmits < 0:
		sp.maxReadmits = -1
	default:
		sp.maxReadmits = cfg.MaxReadmits
	}
	if cfg.KeyedSource != nil {
		sp.src = cfg.KeyedSource
		sp.keyed = make([]keyedStage, n)
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
			sp.mu.Lock()
			sp.conns = append(sp.conns, c)
			sp.mu.Unlock()
		}
	} else {
		for i, addr := range cfg.WorkerAddrs {
			conn, err := sp.dialWorker(addr)
			if err != nil {
				sp.closeSenders()
				return nil, fmt.Errorf("runtime: splitter dial worker %d: %w", i, err)
			}
			sender, err := transport.NewSender(conn)
			if err != nil {
				conn.Close()
				sp.closeSenders()
				return nil, fmt.Errorf("runtime: splitter wrap worker %d: %w", i, err)
			}
			sender.SetStallTimeout(sp.to.SendStall)
			c := &splitConn{id: i, addr: addr, conn: conn, sender: sender, dialedAt: time.Now()}
			sp.mu.Lock()
			sp.conns = append(sp.conns, c)
			sp.mu.Unlock()
		}
	}
	if cfg.ControlAddr != "" {
		// Consume every worker's ready ACK before the monitors start (a
		// monitor treats any readable byte as peer death). This doubles as
		// the admission health check: a worker that cannot reach the merger
		// within the probe deadline never enters the schedule.
		for _, c := range sp.conns {
			if err := sp.probeReady(c.conn); err != nil {
				sp.closeSenders()
				return nil, fmt.Errorf("runtime: splitter probe worker %d: %w", c.id, err)
			}
		}
		ctrl, err := dialControl(cfg.ControlAddr, sp.to)
		if err != nil {
			sp.closeSenders()
			return nil, err
		}
		sp.ctrl = ctrl
	}
	return sp, nil
}

// probeReady waits for the worker's ready ACK byte: the worker writes it once
// its merger connection is up and identified, so reading it proves the whole
// forwarding path. Bounded by the Probe timeout.
func (sp *Splitter) probeReady(conn net.Conn) error {
	if sp.to.Probe > 0 {
		conn.SetReadDeadline(time.Now().Add(sp.to.Probe))
		defer conn.SetReadDeadline(time.Time{})
	}
	var b [1]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return fmt.Errorf("ready ack: %w", err)
	}
	if b[0] != workerReadyAck {
		return fmt.Errorf("ready ack: unexpected byte %#x", b[0])
	}
	return nil
}

// dialWorker dials one worker endpoint and applies the socket buffer size.
func (sp *Splitter) dialWorker(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, sp.to.dialTimeout())
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.SetWriteBuffer(sp.cfg.SocketBufferBytes); err != nil {
			conn.Close()
			return nil, fmt.Errorf("set buffer: %w", err)
		}
	}
	return conn, nil
}

func (sp *Splitter) closeSenders() {
	sp.mu.Lock()
	conns := append([]*splitConn(nil), sp.conns...)
	sp.mu.Unlock()
	for _, c := range conns {
		c.sender.Close()
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
	sp.closeSenders()
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
	if sp.recovery() {
		for _, c := range conns {
			go sp.monitor(c)
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
		sp.closeSenders()
		if sp.ctrl != nil {
			sp.ctrl.Close()
		}
	}()
}

func (sp *Splitter) recovery() bool {
	return sp.ctrl != nil
}

// monitor watches one connection for a peer close: workers never send data
// back, so a read returning at all means the connection died. This detects
// failures even while the splitter is not sending to that connection.
func (sp *Splitter) monitor(c *splitConn) {
	buf := make([]byte, 1)
	c.conn.Read(buf)
	select {
	case sp.deadCh <- c:
	case <-sp.stop:
	}
}

func (sp *Splitter) event(ev ConnEvent) {
	if sp.mtr != nil {
		sp.mtr.connEvent(ev)
	}
	if sp.cfg.OnConnEvent != nil {
		sp.cfg.OnConnEvent(ev)
	}
}

// sendLoop is the splitter's single thread of control; one pass reads tick →
// events → round → send. The collection interval (tick) and all membership
// changes (failures, replays, rejoins) happen here, between rounds. A round
// stages up to BatchSize consecutive sequence numbers; the unkeyed ones are a
// run, sent to one WRR pick made after staging, so a retention wait or a
// membership edit during staging can never strand it on a retired connection.
// Smooth WRR over runs keeps the weights exact over any total-weight
// consecutive runs. A run is written at once unless its edge is congested
// (sendRun); held runs never wait behind a tick, a retention wait, the
// merge-stall check, the drain or a keyed flush to their connection.
func (sp *Splitter) sendLoop() error {
	recovery := sp.recovery()
	batch := uint64(sp.cfg.BatchSize)
	ticker := time.NewTicker(sp.cfg.SampleInterval)
	defer ticker.Stop()
	if recovery && sp.cfg.StallWindow > 0 {
		stall := time.NewTicker(max(sp.cfg.StallWindow/4, time.Millisecond))
		defer stall.Stop()
		sp.stallTick = stall.C
		sp.stallSince = time.Now() // the first round is the first send
	}
	var seq uint64
	for {
		select {
		case <-ticker.C:
			// The held runs' writes belong to the interval the tick closes,
			// so now is read after them.
			if err := sp.writeAllHeld(); err != nil {
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
		sp.run = sp.run[:0]
		first := seq
		srcDone := false
		for seq-first < batch {
			key, payload, ok := sp.src(seq)
			if !ok {
				srcDone = true
				break
			}
			if recovery {
				if err := sp.admitRetention(seq, key, payload); err != nil {
					return err
				}
			}
			if key != 0 && sp.router != nil {
				if err := sp.stageKeyed(seq, key, payload, recovery); err != nil {
					return err
				}
			} else {
				sp.run = append(sp.run, transport.Tuple{Seq: seq, Key: key, Payload: payload})
			}
			seq++
		}
		if err := sp.sendRound(int(seq-first), recovery); err != nil {
			return err
		}
		sp.publishReplayDepth()
		if srcDone {
			break
		}
	}
	if err := sp.writeAllHeld(); err != nil {
		return err
	}
	if !recovery {
		return nil
	}
	return sp.drain(seq)
}

// stageKeyed places one keyed tuple with the key router and stages it in that
// connection's round buffer. Its retain entry, the newest, is assigned now:
// if the connection is retired before the round is sent, the replay re-sends
// the tuple and sendRound drops the buffer.
func (sp *Splitter) stageKeyed(seq, key uint64, payload []byte, recovery bool) error {
	c := sp.pickFor(key)
	if c == nil {
		return sp.allDeadErr()
	}
	if recovery {
		sp.retained[len(sp.retained)-1].conn = c.id
	}
	k := &sp.keyed[c.id]
	if len(k.ts) == 0 {
		sp.touched = append(sp.touched, c.id)
	} else if k.c != c {
		// c rejoined in place of a connection retired mid-round, whose
		// replay already re-sent what it had staged.
		k.ts = k.ts[:0]
	}
	k.c = c
	k.ts = append(k.ts, transport.Tuple{Seq: seq, Key: key, Payload: payload})
	return nil
}

// sendRound sends a round's staged tuples: the run to one WRR pick, then each
// touched connection's keyed tuples. staged is how many sequence numbers the
// round admitted.
func (sp *Splitter) sendRound(staged int, recovery bool) error {
	if len(sp.run) > 0 {
		c := sp.pickFor(0)
		if c == nil {
			return sp.allDeadErr()
		}
		if recovery {
			// The round's retain entries are at most the last staged ones:
			// pruning only removes from the head (positions from the tail, not
			// pointers, because it compacts). The run's are those still
			// unassigned; a keyed entry already names its connection.
			for i := max(sp.retHead, len(sp.retained)-staged); i < len(sp.retained); i++ {
				if sp.retained[i].conn < 0 {
					sp.retained[i].conn = c.id
				}
			}
		}
		if err := sp.sendRun(c, sp.run, recovery); err != nil {
			return err
		}
	}
	for _, id := range sp.touched {
		k := &sp.keyed[id]
		ts := k.ts
		k.ts = k.ts[:0]
		if len(k.c.held) > 0 {
			// Keyed tuples follow the held runs admitted before them.
			if err := sp.writeHeld(k.c); err != nil {
				return err
			}
		}
		if recovery && sp.findLive(id) != k.c {
			continue // retired mid-round: its replay re-sent these
		}
		if err := sp.flush(k.c, ts, recovery); err != nil {
			return err
		}
	}
	sp.touched = sp.touched[:0]
	return nil
}

// sendRun sends one picked run to c. An uncongested edge flushes it at once.
// A congested one holds it: what c holds is written first when the run would
// take it past holdBytes, and everything when it reaches holdBytes, so each
// write carries whole runs of at most holdBytes, or one longer run alone.
func (sp *Splitter) sendRun(c *splitConn, run []transport.Tuple, recovery bool) error {
	if !c.congested {
		return sp.flush(c, run, recovery)
	}
	size := 0
	for i := range run {
		size += transport.FrameLen(run[i])
	}
	if len(c.held) > 0 && c.heldBytes+size > sp.holdBytes {
		if err := sp.writeHeld(c); err != nil {
			return err
		}
		if sp.findLive(c.id) != c {
			return nil // retired: its replay re-sent this run too
		}
	}
	c.held = append(c.held, run...)
	c.heldBytes += size
	if c.heldBytes >= sp.holdBytes {
		return sp.writeHeld(c)
	}
	return nil
}

// writeHeld writes c's held runs in one flush.
func (sp *Splitter) writeHeld(c *splitConn) error {
	ts := c.held
	c.held, c.heldBytes = c.held[:0], 0
	return sp.flush(c, ts, sp.recovery())
}

// writeAllHeld writes every live connection's held runs.
func (sp *Splitter) writeAllHeld() error {
	for i := 0; i < len(sp.conns); i++ {
		if c := sp.conns[i]; len(c.held) > 0 {
			if err := sp.writeHeld(c); err != nil {
				return err
			}
			i = -1 // a failed write retires connections: rescan
		}
	}
	return nil
}

// flush sends one staged batch to c: one write, one elect-to-block episode. A
// failure in recovery mode retires c and replays its unreleased tuples, this
// batch's among them, since their retain entries already name c.
func (sp *Splitter) flush(c *splitConn, ts []transport.Tuple, recovery bool) error {
	err := c.sender.SendBatch(ts)
	if err == nil {
		if sp.mtr != nil {
			sp.mtr.batchFlushes.Inc()
			sp.mtr.batchTuples.Observe(float64(len(ts)))
		}
		return nil
	}
	if !recovery {
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

// errControlLost is handleEvent's report that the merger side of the control
// channel went away; each caller words its own consequence.
var errControlLost = errors.New("runtime: control channel lost")

// handleEvent is the send loop's one event switch: it takes one notice and
// reacts to it. A peer close seen by a monitor goes to fail, which retires the
// connection and replays (drain passes its own, so the notice is weighed
// against the watermark first); a stall tick runs the merge-stall check,
// whose quarantine goes to fail too; a rejoin re-admits the redialed worker.
// With wait set it parks until a notice arrives and also wakes on a watermark
// advance (pruning the replay buffer) and on the loss of the control channel
// (errControlLost).
func (sp *Splitter) handleEvent(wait bool, fail func(id int, quarantined bool) error) error {
	var advanced, lost <-chan struct{}
	if wait {
		advanced, lost = sp.ctrl.wmSignal, sp.ctrl.dead
	}
	select {
	case <-advanced:
		sp.pruneRetained()
	case <-lost:
		return errControlLost
	case c := <-sp.deadCh:
		// A notice names the connection, not just the worker id: the monitor
		// of a connection already retired on a send error may report only
		// after its worker has rejoined, and must not retire the newcomer.
		if sp.findLive(c.id) != c {
			return nil
		}
		return fail(c.id, false)
	case now := <-sp.stallTick:
		return sp.checkStall(now, fail)
	case rj := <-sp.rejoinCh:
		sp.admitRejoin(rj)
	}
	return nil
}

// pollEvents handles the pending notices without blocking: the send loop is
// their only receiver, so a channel seen non-empty here still is when
// handleEvent selects on it.
func (sp *Splitter) pollEvents() error {
	for len(sp.deadCh)+len(sp.stallTick)+len(sp.rejoinCh) > 0 {
		if err := sp.handleEvent(false, sp.connFailed); err != nil {
			return err
		}
	}
	return nil
}

// connFailed acts on a death or quarantine notice for stable worker id. A
// quarantine rides the same membership edit as a death: retire, replay to
// survivors, redial.
func (sp *Splitter) connFailed(id int, quarantined bool) error {
	c := sp.findLive(id)
	if c == nil {
		return nil // already retired
	}
	cause := fmt.Errorf("runtime: worker %d connection closed by peer", id)
	if quarantined {
		sp.quarCount[id]++
		sp.event(ConnEvent{Kind: "quarantine", Conn: id})
		cause = fmt.Errorf("runtime: worker %d quarantined: the merge stalled behind it", id)
	}
	return sp.handleConnFailure(c, cause)
}

// checkStall is the merge-stall check, run on each stall tick. The splitter
// is the only straggler detector: the merger just reports its watermark, and
// the replay buffer knows who carries the head-of-line sequence. When the
// watermark has not moved for StallWindow while a sent tuple is unreleased,
// the head's owner is quarantined through fail. The stall clock restarts at
// every watermark advance, whenever nothing is unreleased (an idle source
// stalls the watermark too), after every replay or rejoin, and after a
// quarantine, so one owner is ejected at most once per window and a survivor
// always gets a full window after a replay.
func (sp *Splitter) checkStall(now time.Time, fail func(id int, quarantined bool) error) error {
	// A head-of-line tuple still held was never sent, so the stall is the
	// splitter's, not its worker's: write it and give it a full window.
	c := sp.findLive(sp.headOwner())
	headHeld := c != nil && len(c.held) > 0 && c.held[0].Seq <= sp.ctrl.Watermark()
	if err := sp.writeAllHeld(); err != nil {
		return err
	}
	if sp.stallAdvanced(now) {
		return nil
	}
	owner := sp.headOwner()
	if owner < 0 || headHeld {
		sp.stallSince = now
		return nil
	}
	if now.Sub(sp.stallSince) < sp.cfg.StallWindow {
		return nil
	}
	if sp.stallFrom.IsZero() {
		sp.stallFrom = sp.stallSince
	}
	err := fail(owner, true)
	sp.stallSince = now
	return err
}

// stallAdvanced reports whether the watermark moved since the last look. If
// it did, the stall clock restarts and an open stall episode ends, observed
// on the stall histogram.
func (sp *Splitter) stallAdvanced(now time.Time) bool {
	wm := sp.ctrl.Watermark()
	if wm == sp.stallWM {
		return false
	}
	sp.stallWM, sp.stallSince = wm, now
	if !sp.stallFrom.IsZero() {
		if sp.mtr != nil {
			sp.mtr.stallSeconds.Observe(now.Sub(sp.stallFrom).Seconds())
		}
		sp.stallFrom = time.Time{}
	}
	return true
}

// headOwner reports which stable worker id carries the lowest unreleased
// sequence number, or -1 when unknown (empty buffer, or the head's run is
// still being staged).
func (sp *Splitter) headOwner() int {
	wm := sp.ctrl.Watermark()
	for i := sp.retHead; i < len(sp.retained); i++ {
		if sp.retained[i].seq >= wm {
			return sp.retained[i].conn
		}
	}
	return -1
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

// admitRetention appends the tuple to the replay buffer, unassigned (conn
// -1) until its round is sent, blocking while the buffer is full until the
// merger's watermark frees space.
func (sp *Splitter) admitRetention(seq, key uint64, payload []byte) error {
	sp.pruneRetained()
	for len(sp.retained)-sp.retHead >= sp.cfg.RetainCap {
		// The watermark may be waiting for held runs.
		if err := sp.writeAllHeld(); err != nil {
			return err
		}
		if err := sp.handleEvent(true, sp.connFailed); err == errControlLost {
			return errors.New("runtime: control channel lost with replay buffer full")
		} else if err != nil {
			return err
		}
	}
	sp.retained = append(sp.retained, retainEntry{seq: seq, key: key, conn: -1, payload: payload})
	return nil
}

// pruneRetained drops retained tuples the merger has released.
func (sp *Splitter) pruneRetained() {
	wm := sp.ctrl.Watermark()
	for sp.retHead < len(sp.retained) && sp.retained[sp.retHead].seq < wm {
		sp.retained[sp.retHead].payload = nil
		sp.retHead++
	}
	if sp.retHead > 0 && sp.retHead*2 >= len(sp.retained) {
		n := copy(sp.retained, sp.retained[sp.retHead:])
		for i := n; i < len(sp.retained); i++ {
			sp.retained[i] = retainEntry{}
		}
		sp.retained = sp.retained[:n]
		sp.retHead = 0
	}
}

// publishReplayDepth sets the replay-buffer gauge. The send loop calls it once
// per round and per drain wake-up, never per tuple.
func (sp *Splitter) publishReplayDepth() {
	if sp.mtr != nil {
		sp.mtr.replayDepth.Set(float64(len(sp.retained) - sp.retHead))
	}
}

// removeConn retires a failed connection: folds its counters, drops it from
// the live set and the schedule, and rebalances the freed weight across
// survivors. Reports whether the connection was still live. Fold and removal
// are one critical section, so connTotals counts the connection exactly once.
func (sp *Splitter) removeConn(c *splitConn, cause error) bool {
	pos := -1
	for i, lc := range sp.conns {
		if lc == c {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	sp.mu.Lock()
	sp.aggSent[c.id] += c.sender.Sent()
	sp.aggBlocking[c.id] += c.sender.TotalBlocking()
	sp.aggBlocked[c.id] += c.sender.BlockEvents()
	sp.conns = append(sp.conns[:pos], sp.conns[pos+1:]...)
	sp.mu.Unlock()
	c.congested, c.held, c.heldBytes = false, nil, 0
	var weights []int
	if sp.cfg.Balancer != nil && sp.cfg.Balancer.Connections() > 1 {
		// The balancer folds the dead connection's weight back into the
		// survivors immediately, so the splitter never routes to it.
		sp.cfg.Balancer.RemoveConnection(pos)
		weights = sp.cfg.Balancer.Weights()
	}
	sp.wrr.Remove(pos)
	sp.samplers.Remove(pos)
	if sp.router != nil {
		sp.router.Remove(pos)
	}
	if weights != nil {
		sp.wrr.SetWeights(weights)
	}
	sp.downErrs = append(sp.downErrs, fmt.Errorf("worker %d: %w", c.id, cause))
	if sp.mtr != nil {
		sp.mtr.connLifetime.Observe(time.Since(c.dialedAt).Seconds())
	}
	c.sender.Close()
	sp.event(ConnEvent{Kind: "down", Conn: c.id, Err: cause})
	if sp.cfg.Redial != nil {
		// Circuit breaker: a worker that keeps getting quarantined is not
		// worth re-admitting — each readmission costs a replay storm.
		if sp.maxReadmits >= 0 && sp.quarCount[c.id] > sp.maxReadmits {
			sp.event(ConnEvent{Kind: "evicted", Conn: c.id})
		} else {
			go sp.redialLoop(c.id, c.addr)
		}
	}
	return true
}

func (sp *Splitter) liveCount() int {
	return len(sp.conns)
}

func (sp *Splitter) allDeadErr() error {
	return fmt.Errorf("runtime: all worker connections failed: %w", errors.Join(sp.downErrs...))
}

// handleConnFailure retires the failed connection and replays every
// unreleased tuple it carried across the survivors. If a survivor fails
// during replay it is retired too and its tuples join the worklist.
func (sp *Splitter) handleConnFailure(c *splitConn, cause error) error {
	var deadIDs []int
	if sp.removeConn(c, cause) {
		deadIDs = append(deadIDs, c.id)
	}
	for len(deadIDs) > 0 {
		if sp.liveCount() == 0 {
			return sp.allDeadErr()
		}
		// No pruning here: compaction would invalidate the entry pointers
		// collectRetained returns. Replaying an already-released tuple is
		// harmless — the merger dedupes it.
		id := deadIDs[0]
		deadIDs = deadIDs[1:]
		entries := sp.collectRetained(id)
		for _, e := range entries {
			for {
				c2 := sp.pickFor(0)
				if c2 == nil {
					return sp.allDeadErr()
				}
				// Replays are Solo: a re-sent tuple must never be absorbed
				// into a combine group, or a crash between the original group
				// and the replay could double-count it.
				if err := c2.sender.Send(transport.Tuple{Seq: e.seq, Key: e.key, Solo: e.key != 0, Payload: e.payload}); err != nil {
					if sp.removeConn(c2, err) {
						deadIDs = append(deadIDs, c2.id)
					}
					continue
				}
				e.conn = c2.id
				break
			}
		}
		sp.event(ConnEvent{Kind: "replay", Conn: id, Tuples: len(entries)})
	}
	sp.stallSince = time.Now()
	return nil
}

// collectRetained returns the retained entries currently assigned to the
// given stable worker id.
func (sp *Splitter) collectRetained(id int) []*retainEntry {
	var out []*retainEntry
	for i := sp.retHead; i < len(sp.retained); i++ {
		if sp.retained[i].conn == id {
			out = append(out, &sp.retained[i])
		}
	}
	return out
}

// redialLoop re-establishes a failed worker connection with backoff and
// hands it to the send loop. One attempt is a dial plus the readmission
// health probe: an accepted TCP connection only proves the listener is alive,
// so the worker's ready ACK (its merger path re-established) is required too,
// and a worker that accepts but never acknowledges backs off like one that
// refuses. When the attempt budget runs out it emits "redial-exhausted" and
// gives up — the worker stays out of the schedule for good.
func (sp *Splitter) redialLoop(id int, addr string) {
	rd := transport.NewRedialer(func() (net.Conn, error) {
		if sp.mtr != nil {
			sp.cm[id].redials.Inc()
		}
		conn, err := sp.dialWorker(addr)
		if err != nil {
			return nil, err
		}
		if err := sp.probeReady(conn); err != nil {
			conn.Close()
			return nil, fmt.Errorf("health probe: %w", err)
		}
		return conn, nil
	}, *sp.cfg.Redial)
	conn, err := rd.Dial(sp.stop)
	if err != nil {
		select {
		case <-sp.stop: // shutting down, not exhausted
		default:
			sp.event(ConnEvent{Kind: "redial-exhausted", Conn: id, Err: err})
		}
		return
	}
	sender, err := transport.NewSender(conn)
	if err != nil {
		conn.Close()
		return
	}
	sender.SetStallTimeout(sp.to.SendStall)
	select {
	case sp.rejoinCh <- rejoin{id: id, addr: addr, conn: conn, sender: sender}:
	case <-sp.stop:
		sender.Close()
	}
}

// admitRejoin re-admits a redialed worker: it re-enters the schedule and
// the balancer with zero weight, so the next rebalance explores it and the
// learning loop re-measures its capacity.
func (sp *Splitter) admitRejoin(rj rejoin) {
	c := &splitConn{id: rj.id, addr: rj.addr, conn: rj.conn, sender: rj.sender, dialedAt: time.Now()}
	sp.mu.Lock()
	sp.conns = append(sp.conns, c)
	sp.mu.Unlock()
	sp.samplers.Add()
	if sp.cfg.Balancer != nil {
		sp.cfg.Balancer.AddConnection()
		sp.wrr.Add(0)
		sp.wrr.SetWeights(sp.cfg.Balancer.Weights())
	} else {
		// Without a balancer, give the newcomer an even share at once.
		w := sp.wrr.Weights()
		share := core.DefaultUnits / (len(w) + 1)
		if share < 1 {
			share = 1
		}
		sp.wrr.Add(share)
	}
	if sp.router != nil {
		sp.router.Add()
	}
	go sp.monitor(c)
	sp.stallSince = time.Now()
	sp.event(ConnEvent{Kind: "rejoin", Conn: rj.id})
	if sp.quarCount[rj.id] > 0 && sp.mtr != nil {
		sp.mtr.traceEvent(metrics.Event{Kind: "readmit", Conn: rj.id})
	}
}

// drain holds the splitter open after the source is exhausted until the
// merger confirms (via the watermark) that every tuple was released —
// replaying on any late connection failure — so a worker dying with tuples
// in flight cannot lose data.
func (sp *Splitter) drain(total uint64) error {
	if err := sp.ctrl.SendFin(total); err != nil {
		if sp.ctrl.Watermark() >= total {
			return nil
		}
		return err
	}
	fail := func(id int, quarantined bool) error { return sp.drainFailure(total, id, quarantined) }
	for {
		sp.pruneRetained()
		sp.publishReplayDepth()
		if sp.ctrl.Watermark() >= total {
			return nil
		}
		err := sp.handleEvent(true, fail)
		if err == errControlLost {
			if sp.ctrl.Watermark() >= total {
				return nil
			}
			return fmt.Errorf("runtime: merger lost before releasing all tuples (watermark %d of %d)",
				sp.ctrl.Watermark(), total)
		} else if err != nil {
			return err
		}
	}
}

// drainFailure acts on a death or quarantine notice taken while draining,
// unless the merger has released everything in the meantime: select may take
// the notice while wmSignal is ready too, and a connection may well drop or
// go silent because the merger, done, is tearing the pipeline down. Replaying
// then would send into closed worker connections, retire each live one on
// its EPIPE and report all workers failed for a stream that completed. The
// watermark is read again before an error is believed, for the same reason.
func (sp *Splitter) drainFailure(total uint64, id int, quarantined bool) error {
	if sp.ctrl.Watermark() >= total {
		return nil
	}
	err := sp.connFailed(id, quarantined)
	if err != nil && sp.ctrl.Watermark() >= total {
		return nil
	}
	return err
}

// tick is one collection interval, run by the send loop between two rounds,
// after it has written the held runs: it differences the senders' lifetime
// blocking counters into rates, steps the balancer, installs the new weights
// and marks the TCP edges that blocked as congested for the next interval.
// No flush is in progress while it runs, so every blocking episode it sees
// is whole and the rates of one interval sum to at most 1 — the one sending
// thread cannot be blocked twice at once — which is what Balancer.Step's
// blocked fraction assumes.
//
// The gate is per connection: an in-proc edge has no write system call to
// save, and an edge that did not block itself writes each run at once even
// while the thread was parked on another. Nothing is held after an interval
// the thread spent at least holdParkedShare parked.
func (sp *Splitter) tick(now time.Duration) error {
	cumulative := make([]time.Duration, len(sp.conns))
	for j, c := range sp.conns {
		cumulative[j] = c.sender.TotalBlocking()
	}
	rates, _ := sp.samplers.Sample(now, cumulative)
	parked := 0.0
	for _, r := range rates {
		parked += r
	}
	for j, c := range sp.conns {
		_, tcp := c.sender.(*transport.Sender)
		c.congested = tcp && rates[j] > 0 && parked < holdParkedShare
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
		blocking += c.sender.TotalBlocking()
		wouldBlock += c.sender.BlockEvents()
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
