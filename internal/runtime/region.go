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
// in strict order even across worker crashes. A bare splitter reads the
// fields but Enabled and WatermarkInterval, as SplitterConfig.Recovery.
type RecoveryConfig struct {
	// Enabled turns recovery on.
	Enabled bool
	// RetainCap bounds the splitter's replay buffer in tuples (default
	// DefaultRetainCap). When it fills, the splitter blocks until the
	// watermark advances — back pressure against a lagging merger.
	RetainCap int
	// WatermarkInterval is how often the merger reports its released
	// watermark (default DefaultWatermarkInterval).
	WatermarkInterval time.Duration
	// Redial governs reconnection to failed workers: exponential backoff
	// and jitter, after which a reconnected worker rejoins the schedule
	// (and the balancer, which re-learns its capacity). Nil selects
	// DefaultRegionRedial (base 10ms, cap 500ms, jittered, 60 attempts).
	// Set MaxAttempts to rebound it, or DisableRedial to never redial.
	Redial *transport.RedialPolicy
	// DisableRedial turns reconnection off: a dead worker stays dead and
	// its load shifts permanently to the survivors.
	DisableRedial bool
	// StallWindow arms the merge-stall check: when the merger's watermark
	// has not moved for this long while a sent tuple is still unreleased,
	// the splitter quarantines the connection carrying the head-of-line
	// sequence, unless it is the last live one. Zero selects
	// DefaultStallWindow; negative disables the check.
	StallWindow time.Duration
	// MaxReadmits caps how many times one worker may be quarantined and
	// still redialed before the circuit breaker retires it permanently
	// (0 selects DefaultMaxReadmits, negative is unlimited).
	MaxReadmits int
}

// norm fills in the defaults: RetainCap, StallWindow and MaxReadmits at 0
// take theirs (negative keeps its meaning), and Redial becomes the policy in
// force, nil when DisableRedial is set.
func (rc RecoveryConfig) norm() RecoveryConfig {
	if rc.RetainCap <= 0 {
		rc.RetainCap = DefaultRetainCap
	}
	if rc.StallWindow == 0 {
		rc.StallWindow = DefaultStallWindow
	}
	if rc.MaxReadmits == 0 {
		rc.MaxReadmits = DefaultMaxReadmits
	}
	switch {
	case rc.DisableRedial:
		rc.Redial = nil
	case rc.Redial == nil:
		policy := DefaultRegionRedial
		rc.Redial = &policy
	}
	return rc
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
	// SampleInterval is the splitter's collection interval (default
	// DefaultSampleInterval).
	SampleInterval time.Duration
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
	// BatchSize is the splitter's round length: the unkeyed tuples among
	// that many consecutive sequence numbers go to one weighted round-robin
	// pick (<= 1 is a round of one). Each round ends with one write per
	// connection it gave output to, unless that TCP edge is congested. See
	// SplitterConfig.BatchSize for the throughput/signal tradeoff.
	BatchSize int
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

	// mergerQueue and ringCap override DefaultMergerQueue and
	// transport.DefaultInprocRing (0 keeps them). Fields, not the constants,
	// so a test can drive small reorder caps and in-proc rings.
	mergerQueue, ringCap int
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

// SplitterConfig returns the splitter configuration the region's fields set:
// all of it but the edges (WorkerAddrs, Senders) and ControlAddr.
func (cfg RegionConfig) SplitterConfig() SplitterConfig {
	return SplitterConfig{
		Source:         cfg.Source,
		KeyedSource:    cfg.KeyedSource,
		Router:         cfg.Router,
		Balancer:       cfg.Balancer,
		SampleInterval: cfg.SampleInterval,
		OnSample:       cfg.OnSample,
		OnConnEvent:    cfg.OnConnEvent,
		BatchSize:      cfg.BatchSize,
		Metrics:        cfg.Metrics,
		Timeouts:       cfg.Timeouts,
		Recovery:       cfg.Recovery,
	}
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
	merger, err := newMerger(len(cfg.Operators), cfg.mergerQueue, func(t *transport.Tuple, conn int) {
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
	merger.SetWatermarkInterval(cfg.Recovery.WatermarkInterval)
	merger.SetTimeouts(cfg.Timeouts)
	merger.SetMetrics(cfg.Metrics)
	r.merger = merger

	var addrs []string
	var senders []transport.BatchSender
	if inproc {
		// Each worker goroutine reads a bounded shared-memory edge from the
		// splitter (transport.DefaultInprocRing tuples, the in-proc "socket
		// buffer") and forwards on its own goroutine straight into its
		// stream's merger ingest ring (forwardEdge), under the readers'
		// admission rules.
		to := cfg.Timeouts.norm()
		for i, op := range cfg.Operators {
			out, err := merger.forwardEdge(i)
			if err != nil {
				r.Close()
				return nil, err
			}
			inTx, inRx := transport.InprocPair(cfg.ringCap)
			r.workers = append(r.workers, newInprocWorker(i, op, inRx, out, to))
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
			w.SetTimeouts(cfg.Timeouts)
			w.SetResilient(r.recovery)
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

	scfg := cfg.SplitterConfig()
	scfg.WorkerAddrs, scfg.Senders = addrs, senders
	if r.recovery {
		scfg.ControlAddr = merger.Addr()
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
