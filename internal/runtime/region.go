package runtime

import (
	"errors"
	"fmt"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/schedule"
	"streambalance/internal/transport"
)

// RecoveryConfig opts a region into worker-failure recovery: the splitter
// retains sent tuples above the merger's released watermark (reported on a
// side control connection) and replays a dead worker's unreleased tuples to
// the survivors; the merger tolerates worker streams dying and rejoining
// and dedupes replayed sequences, so every tuple is released exactly once
// in strict order even across worker crashes.
type RecoveryConfig struct {
	// Enabled turns recovery on.
	Enabled bool
	// RetainCap bounds the splitter's replay buffer in tuples (default
	// DefaultRetainCap).
	RetainCap int
	// WatermarkInterval is how often the merger reports its released
	// watermark (default DefaultWatermarkInterval).
	WatermarkInterval time.Duration
	// Redial governs reconnection to failed workers; nil selects
	// DefaultRegionRedial (exponential backoff, base 10ms, cap 500ms,
	// jittered, 60 attempts). Set MaxAttempts to rebound it, or
	// DisableRedial to never redial.
	Redial *transport.RedialPolicy
	// DisableRedial turns reconnection off: a dead worker stays dead and
	// its load shifts permanently to the survivors.
	DisableRedial bool
	// StallWindow is how long the merge may make no progress (while the
	// splitter retains unreleased tuples) before the splitter quarantines
	// the straggling worker. Zero selects DefaultStallWindow; negative
	// disables the check. See SplitterConfig.StallWindow.
	StallWindow time.Duration
	// MaxReadmits caps how many times one worker may be quarantined and
	// still redialed before the circuit breaker retires it permanently
	// (0 selects DefaultMaxReadmits, negative is unlimited).
	MaxReadmits int
}

// TransportKind selects how a region's edges move tuples.
type TransportKind string

const (
	// TransportTCP is the default: splitter, workers and merger talk over
	// loopback TCP exactly as separate processes would, with the full frame
	// protocol. The empty string selects it.
	TransportTCP TransportKind = "tcp"
	// TransportInproc co-locates the whole region in one process: workers
	// are goroutines and every edge is a bounded shared-memory SPSC ring
	// carrying tuples by reference — no serialization, no copies, no
	// sockets. The blocking signal (ring-full waits) feeds the balancer
	// identically, so replica scaling works unchanged. Recovery is
	// unavailable (it is inherently a remote-process protocol).
	TransportInproc TransportKind = "inproc"
)

// RegionConfig assembles one ordered data-parallel region.
type RegionConfig struct {
	// Transport selects the edge implementation: TransportTCP (default) or
	// TransportInproc. See TransportKind.
	Transport TransportKind
	// Workers is the fan-out N; one operator per worker is required.
	Operators []Operator
	// Source feeds the splitter. Exactly one of Source and KeyedSource is
	// required. A returned payload must never be mutated after the call
	// returns: the splitter holds it by reference until it is written, and
	// under recovery until the merger releases it (see Source).
	Source Source
	// KeyedSource feeds the splitter with keyed tuples; non-zero keys route
	// through Router. Mutually exclusive with Source.
	KeyedSource KeyedSource
	// Router places non-zero keys on workers (default PKG). See
	// SplitterConfig.Router.
	Router schedule.KeyRouter
	// Combiner, when set, installs per-key partial aggregation in every
	// worker: same-key results within one processed batch fold into their
	// lowest-seq carrier before the forward to the merger, which releases
	// the absorbed sequence numbers by advancing its watermark through them
	// (counted in RegionResult.CombinedReleased, never delivered to Sink).
	// Requires KeyedSource.
	Combiner Combiner
	// Balancer, when set, balances dynamically; nil means round-robin.
	Balancer *core.Balancer
	// SampleInterval is the splitter's collection interval (default 1s).
	SampleInterval time.Duration
	// MergerQueue bounds each reorder queue (default DefaultMergerQueue).
	MergerQueue int
	// RingCap bounds each merger connection's lock-free SPSC ingest ring
	// in tuples (<= 0 selects DefaultMergerRing; rounded up to a power of
	// two). The ring is the reader-to-merge-loop hand-off lane; its
	// occupancy counts toward the MergerQueue back-pressure cap, so the
	// blocking signal the balancer reads is unchanged by its size. On the
	// in-proc transport it additionally bounds every shared-memory edge
	// (splitter→worker and worker→merger rings): the edge ring is that
	// transport's "socket buffer", the thing whose fullness makes a send
	// elect to block.
	RingCap int
	// Sink receives every released tuple in order, with the worker id.
	// Optional.
	Sink func(transport.Tuple, int)
	// OnSample observes each collection interval. Optional. It runs on the
	// splitter's send loop between two rounds and must not block: no tuple
	// moves until it returns.
	OnSample func(now time.Duration, rates []float64, weights []int)
	// OnConnEvent observes splitter recovery events (down/replay/rejoin).
	// Optional.
	OnConnEvent func(ConnEvent)
	// SocketBufferBytes sizes the kernel buffers between splitter and
	// workers (default DefaultSocketBuffer); a quarter of it bounds one
	// write of a congested edge's held runs.
	SocketBufferBytes int
	// BatchSize is the splitter's run length: that many consecutive
	// sequence numbers to one weighted round-robin pick (<= 1 is a run of
	// one). A run is one write unless its TCP edge is congested. See
	// SplitterConfig.BatchSize for the throughput/signal tradeoff.
	BatchSize int
	// RecvBatchSize caps the tuples workers and merger readers take per
	// receive pass (1 is a batch of one; <= 0, the default, lets the edge
	// decide: one read's worth on TCP, up to transport.DefaultRecvBatch
	// in-proc). There is no signal tradeoff, unlike BatchSize: a receive
	// pass only drains what is already buffered.
	RecvBatchSize int
	// Recovery opts the region into worker-failure recovery.
	Recovery RecoveryConfig
	// WrapWorkerAddr, when set, maps each worker's listen address to the
	// address the splitter should dial instead — the hook fault-injecting
	// proxies (internal/chaos) use to interpose on worker links.
	WrapWorkerAddr func(worker int, addr string) string
	// Metrics, when set, instruments the whole region (splitter, balancer,
	// merger, recovery) on the RegionMetrics' registry and trace ring. Nil
	// disables instrumentation with zero hot-path cost.
	Metrics *RegionMetrics
	// Timeouts bounds every control-plane I/O in the region: dials,
	// handshakes, health probes, control-channel frames and send stalls.
	// Zero fields select the defaults; negative fields disable the
	// corresponding deadline.
	Timeouts Timeouts
}

// Region owns the processes of one parallel region: N workers, the merger
// and the splitter, wired over loopback TCP or in-process shared-memory
// edges per RegionConfig.Transport.
type Region struct {
	workers  []regionWorker
	merger   *Merger
	splitter *Splitter
	recovery bool
	// strictOrder demands every release be exactly the next sequence number.
	// Combining regions relax it to strictly-monotone: absorbed sequence
	// numbers are released silently (watermark only), so the sink legally
	// sees gaps; gaplessness is then Released + CombinedReleased == total.
	strictOrder bool

	// Written by the merge goroutine alone (the merger's sink callback) and
	// read by Run after merger.Wait, which orders the two: no lock.
	lastSeq   uint64
	orderGood bool
}

// RegionResult summarizes a completed region run.
type RegionResult struct {
	// Released counts tuples that exited the merger.
	Released uint64
	// OrderPreserved reports whether every release had the next sequence
	// number in line.
	OrderPreserved bool
	// TotalBlocking is the lifetime blocking per worker (summed across
	// reconnections).
	TotalBlocking []time.Duration
	// PerConnSent counts tuples sent per worker, including replays.
	PerConnSent []int64
	// Deduped counts replayed duplicates the merger dropped to keep the
	// exactly-once release guarantee.
	Deduped uint64
	// CombinedReleased counts sequence numbers released by absorption into a
	// combined carrier (watermark advanced with no Sink call). Released +
	// CombinedReleased covers the whole stream.
	CombinedReleased uint64
	// CombinerHits counts tuples the workers' combiners absorbed into
	// same-key carriers.
	CombinerHits uint64
	// KeyedSent counts router-placed tuples per worker (nil-equivalent zeros
	// for unkeyed regions).
	KeyedSent []int64
	// Elapsed is the wall-clock makespan.
	Elapsed time.Duration
}

// DefaultRegionRedial is the redial policy a recovery-enabled region uses
// when none is configured. MaxAttempts bounds it (~30s of retries at the
// backoff cap) so a permanently dead worker cannot leak a redial goroutine
// forever; configure an explicit policy with MaxAttempts 0 for unbounded
// retries.
var DefaultRegionRedial = transport.RedialPolicy{
	Base:        10 * time.Millisecond,
	Max:         500 * time.Millisecond,
	Jitter:      0.2,
	MaxAttempts: 60,
}

// NewRegion builds and connects all components; nothing runs until Run.
func NewRegion(cfg RegionConfig) (*Region, error) {
	switch cfg.Transport {
	case "", TransportTCP, TransportInproc:
	default:
		return nil, fmt.Errorf("runtime: unknown transport %q", cfg.Transport)
	}
	inproc := cfg.Transport == TransportInproc
	if inproc {
		if cfg.Recovery.Enabled {
			// Recovery is a remote-process protocol — control channel,
			// retain/replay, redial — with no in-process analogue: a crashed
			// goroutine is a crashed process.
			return nil, errors.New("runtime: recovery requires the TCP transport")
		}
		if cfg.WrapWorkerAddr != nil {
			return nil, errors.New("runtime: WrapWorkerAddr requires the TCP transport")
		}
	}
	if len(cfg.Operators) == 0 {
		return nil, errors.New("runtime: region needs at least one operator")
	}
	if cfg.Source == nil && cfg.KeyedSource == nil {
		return nil, errors.New("runtime: region needs a source")
	}
	if cfg.Combiner != nil && cfg.KeyedSource == nil {
		return nil, errors.New("runtime: Combiner requires KeyedSource")
	}
	r := &Region{orderGood: true, recovery: cfg.Recovery.Enabled, strictOrder: cfg.Combiner == nil}

	// An in-proc region's merger opens no socket: nothing would ever dial it.
	// The order check reads the released tuple where it lies; only cfg.Sink
	// gets a copy.
	merger, err := newMerger(len(cfg.Operators), cfg.MergerQueue, func(t *transport.Tuple, conn int) {
		if r.strictOrder {
			if t.Seq != r.lastSeq {
				r.orderGood = false
			}
		} else if t.Seq < r.lastSeq {
			r.orderGood = false
		}
		r.lastSeq = t.Seq + 1
		if cfg.Sink != nil {
			cfg.Sink(*t, conn)
		}
	}, !inproc)
	if err != nil {
		return nil, err
	}
	if cfg.Recovery.WatermarkInterval > 0 {
		merger.SetWatermarkInterval(cfg.Recovery.WatermarkInterval)
	}
	merger.SetRecvBatch(cfg.RecvBatchSize)
	merger.SetRingCap(cfg.RingCap)
	merger.SetTimeouts(cfg.Timeouts)
	merger.SetMetrics(cfg.Metrics)
	r.merger = merger

	var addrs []string
	var senders []transport.BatchSender
	if inproc {
		// Each worker goroutine sits between two bounded shared-memory
		// edges; the merger consumes the output edge exactly as it reads a
		// socket. RingCap bounds both edges (the in-proc "socket buffer").
		to := cfg.Timeouts.norm()
		for i, op := range cfg.Operators {
			inTx, inRx := transport.InprocPair(cfg.RingCap)
			outTx, outRx := transport.InprocPair(cfg.RingCap)
			if err := merger.AttachInproc(i, outRx); err != nil {
				inTx.Close()
				outTx.Close()
				r.Close()
				return nil, err
			}
			r.workers = append(r.workers, newInprocWorker(i, op, inRx, outTx, cfg.RecvBatchSize, to))
			senders = append(senders, inTx)
		}
	} else {
		addrs = make([]string, len(cfg.Operators))
		for i, op := range cfg.Operators {
			w, err := NewWorker(i, op, merger.Addr())
			if err != nil {
				r.Close()
				return nil, err
			}
			if cfg.SocketBufferBytes > 0 {
				w.SetReceiveBuffer(cfg.SocketBufferBytes)
			}
			w.SetRecvBatch(cfg.RecvBatchSize)
			w.SetTimeouts(cfg.Timeouts)
			if r.recovery {
				w.SetResilient(true)
			}
			r.workers = append(r.workers, w)
			addrs[i] = w.Addr()
			if cfg.WrapWorkerAddr != nil {
				addrs[i] = cfg.WrapWorkerAddr(i, addrs[i])
			}
		}
	}

	if cfg.Combiner != nil {
		for _, w := range r.workers {
			w.SetCombiner(cfg.Combiner)
		}
	}
	if cfg.Metrics != nil {
		cfg.Metrics.combinerHits.SetFunc(func() float64 { return float64(r.combinerHits()) })
	}

	// Workers and merger must be listening before the splitter dials, and
	// workers only dial the merger after the splitter connects, so start
	// them before constructing the splitter.
	merger.Start()
	for _, w := range r.workers {
		w.Start()
	}

	scfg := SplitterConfig{
		WorkerAddrs:       addrs,
		Senders:           senders,
		Source:            cfg.Source,
		KeyedSource:       cfg.KeyedSource,
		Router:            cfg.Router,
		Balancer:          cfg.Balancer,
		SampleInterval:    cfg.SampleInterval,
		OnSample:          cfg.OnSample,
		OnConnEvent:       cfg.OnConnEvent,
		SocketBufferBytes: cfg.SocketBufferBytes,
		BatchSize:         cfg.BatchSize,
		Metrics:           cfg.Metrics,
		Timeouts:          cfg.Timeouts,
	}
	if r.recovery {
		scfg.ControlAddr = merger.Addr()
		scfg.RetainCap = cfg.Recovery.RetainCap
		scfg.MaxReadmits = cfg.Recovery.MaxReadmits
		scfg.StallWindow = cfg.Recovery.StallWindow
		if scfg.StallWindow == 0 {
			scfg.StallWindow = DefaultStallWindow
		}
		if !cfg.Recovery.DisableRedial {
			policy := DefaultRegionRedial
			if cfg.Recovery.Redial != nil {
				policy = *cfg.Recovery.Redial
			}
			scfg.Redial = &policy
		}
	}
	splitter, err := NewSplitter(scfg)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.splitter = splitter
	return r, nil
}

// Run executes the region until the source is exhausted and every tuple has
// exited the merger. With recovery enabled, worker failures along the way
// are absorbed (replayed and, if possible, reconnected) rather than
// surfaced, and an error is returned only when the stream could not be
// completed — e.g. every worker died.
func (r *Region) Run() (RegionResult, error) {
	start := time.Now()
	r.splitter.Start()

	var errs []error
	if err := r.splitter.Wait(); err != nil {
		errs = append(errs, fmt.Errorf("splitter: %w", err))
	}
	if r.recovery {
		// Resilient workers keep accepting until told otherwise.
		for _, w := range r.workers {
			w.Close()
		}
	}
	for i, w := range r.workers {
		if err := w.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("worker %d: %w", i, err))
		}
	}
	if len(errs) > 0 {
		// The merger cannot finish once splitter or workers failed
		// terminally; abort it rather than waiting forever.
		r.merger.Close()
	}
	if err := r.merger.Wait(); err != nil && len(errs) == 0 {
		errs = append(errs, fmt.Errorf("merger: %w", err))
	}

	res := RegionResult{Elapsed: time.Since(start)}
	res.Released = r.merger.released.Load()
	res.OrderPreserved = r.orderGood
	res.PerConnSent, res.TotalBlocking = r.splitter.ConnStats()
	res.Deduped = r.merger.Deduped()
	res.CombinedReleased = r.merger.CombinedReleased()
	res.KeyedSent = r.splitter.KeyedStats()
	res.CombinerHits = r.combinerHits()
	return res, errors.Join(errs...)
}

// combinerHits sums the workers' absorbed-tuple counts.
func (r *Region) combinerHits() uint64 {
	var hits uint64
	for _, w := range r.workers {
		hits += w.CombinerHits()
	}
	return hits
}

// Close tears down a region that never ran: listeners, worker connections
// and the splitter's dialed senders.
func (r *Region) Close() {
	if r.merger != nil {
		r.merger.Close()
	}
	for _, w := range r.workers {
		w.Close()
	}
	if r.splitter != nil {
		r.splitter.Close()
	}
}
