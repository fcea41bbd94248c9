package sim

import (
	"fmt"
	"math/rand"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/quantile"
	"streambalance/internal/schedule"
	"streambalance/internal/stats"
)

// pendingTuple records where an in-flight tuple went and when it was sent.
type pendingTuple struct {
	conn   int
	sentAt time.Duration
}

// workerState tracks one worker PE's processing status.
type workerState int

const (
	workerIdle workerState = iota + 1
	workerBusy
	workerBlockedOnMerger
)

// Sim is one instantiated run. Construct with New, execute with Run.
type Sim struct {
	cfg   Config
	hosts []HostSpec
	// oversub[j] is the static oversubscription slowdown of connection j's
	// host: max(1, PEs on host / thread slots).
	oversub []float64

	clock time.Duration
	sched scheduler
	wrr   *schedule.WRR

	// Splitter state.
	nextSeq        uint64 // next sequence number to send
	splitterDone   bool   // all TotalTuples sent
	splitterBlock  bool   // splitter is blocked
	blockedOn      int    // connection the splitter is blocked on
	blockStart     time.Duration
	runConn        int // connection the current run goes to
	runLeft        int // tuples of the current run not yet delivered
	inflight       []*seqQueue
	cumBlocking    []time.Duration // sampled counter, periodically reset
	totalBlocking  []time.Duration // lifetime counter
	rerouted       uint64
	perConnSent    []uint64
	perConnDone    []uint64
	totalSent      uint64
	totalCompleted uint64

	// Worker state.
	state      []workerState
	processing []uint64 // seq being processed (valid when busy)
	held       []uint64 // seq held while blocked on the merger

	// Merger state.
	mergerQ    []*seqQueue
	releaseSeq uint64 // next sequence number to release downstream
	// Release-gap tracking for MaxReleaseGap: all releases inside one drain
	// share a clock instant, so only the first release after a pause records
	// a gap.
	lastReleaseAt time.Duration
	maxReleaseGap time.Duration
	// owner tracks each in-flight tuple's connection and send time, for the
	// release frontier and the end-to-end latency metric.
	owner        map[uint64]pendingTuple
	latency      *quantile.Tracker
	samplers     *stats.SamplerSet
	lastSampled  uint64 // completed count at previous controller tick
	lastSampleAt time.Duration

	// Throughput history for the final-throughput metric: one entry per
	// controller tick.
	tputHistory []float64

	weights      []int
	jitter       *rand.Rand
	loadSwitched bool
	switchedAt   time.Duration
	ended        bool
	endAt        time.Duration
}

// New validates the config and builds a ready-to-run simulation.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	counts, err := validateTopology(cfg.Hosts, cfg.PEs)
	if err != nil {
		return nil, err
	}
	n := len(cfg.PEs)
	wrr, err := schedule.NewWRR(n)
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:           cfg,
		hosts:         cfg.Hosts,
		oversub:       make([]float64, n),
		wrr:           wrr,
		inflight:      make([]*seqQueue, n),
		cumBlocking:   make([]time.Duration, n),
		totalBlocking: make([]time.Duration, n),
		perConnSent:   make([]uint64, n),
		perConnDone:   make([]uint64, n),
		state:         make([]workerState, n),
		processing:    make([]uint64, n),
		held:          make([]uint64, n),
		mergerQ:       make([]*seqQueue, n),
		owner:         make(map[uint64]pendingTuple),
		latency:       quantile.NewTracker(),
		samplers:      stats.NewSamplerSet(n, cfg.ResetInterval),
		weights:       core.EvenWeights(n, core.DefaultUnits),
	}
	for j := 0; j < n; j++ {
		s.inflight[j] = newSeqQueue(cfg.InflightCap)
		s.mergerQ[j] = newSeqQueue(cfg.MergerCap)
		s.state[j] = workerIdle
		host := cfg.Hosts[cfg.PEs[j].Host]
		slots := host.ThreadSlots()
		factor := 1.0
		if counts[cfg.PEs[j].Host] > slots {
			factor = float64(counts[cfg.PEs[j].Host]) / float64(slots)
		}
		s.oversub[j] = factor
	}
	if cfg.ServiceJitter > 0 {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		s.jitter = rand.New(rand.NewSource(seed))
	}
	if err := s.wrr.SetWeights(s.weights); err != nil {
		return nil, err
	}
	return s, nil
}

// Connections returns the region fan-out.
func (s *Sim) Connections() int {
	return len(s.cfg.PEs)
}

// serviceTime computes how long connection j's worker needs for one tuple
// started at virtual time t.
func (s *Sim) serviceTime(j int, t time.Duration) time.Duration {
	pe := s.cfg.PEs[j]
	host := s.hosts[pe.Host]
	var mult float64
	if s.cfg.PostSwitchLoads != nil {
		// Work-triggered schedules: the pre-switch load applies until the
		// switch, the post-switch schedule (evaluated relative to the
		// switch instant) afterwards.
		if s.loadSwitched {
			mult = s.cfg.PostSwitchLoads[j].At(t - s.switchedAt)
		} else {
			mult = pe.Load.At(t)
		}
	} else {
		mult = pe.Load.At(t)
	}
	cost := float64(s.cfg.BaseCost) * mult * s.oversub[j] / host.ClockFactor
	if s.jitter != nil {
		cost *= 1 + s.cfg.ServiceJitter*(2*s.jitter.Float64()-1)
	}
	d := time.Duration(cost * float64(s.cfg.MultiplyTime))
	if d <= 0 {
		d = 1
	}
	return d
}

// sendInterval is the splitter's per-tuple pacing: its own per-tuple work,
// stretched further when a rate-limited source cannot feed it faster.
func (s *Sim) sendInterval() time.Duration {
	interval := time.Duration(s.cfg.SendCost) * s.cfg.MultiplyTime
	if s.cfg.SourceRate != nil {
		if rate := s.cfg.SourceRate.At(s.clock); rate > 0 {
			if paced := time.Duration(float64(time.Second) / rate); paced > interval {
				interval = paced
			}
		}
	}
	return interval
}

// Run executes the simulation to completion and returns its metrics.
func (s *Sim) Run() (Metrics, error) {
	s.sched.schedule(0, evSplitterSend, -1)
	s.sched.schedule(s.cfg.SampleInterval, evController, -1)

	for !s.ended {
		ev, ok := s.sched.next()
		if !ok {
			// No events left: the system has fully drained.
			s.finish(s.clock)
			break
		}
		if s.cfg.Duration > 0 && ev.at > s.cfg.Duration {
			s.finish(s.cfg.Duration)
			break
		}
		s.clock = ev.at
		switch ev.kind {
		case evSplitterSend:
			s.handleSplitterSend()
		case evWorkerFinish:
			s.handleWorkerFinish(ev.conn)
		case evController:
			s.handleController()
		default:
			return Metrics{}, fmt.Errorf("sim: unknown event kind %d", ev.kind)
		}
		if s.cfg.PostSwitchLoads != nil && !s.loadSwitched && s.totalCompleted >= s.cfg.LoadSwitchAfterTuples {
			s.loadSwitched = true
			s.switchedAt = s.clock
		}
		if s.cfg.TotalTuples > 0 && s.totalCompleted >= s.cfg.TotalTuples {
			s.finish(s.clock)
		}
	}
	return s.metrics(), nil
}

// finish marks the run complete at the given virtual time.
func (s *Sim) finish(at time.Duration) {
	if s.ended {
		return
	}
	// Fold any in-progress blocking into the counters so the totals are
	// accurate at the end of the run.
	if s.splitterBlock {
		s.accrueBlocking(at)
		s.blockStart = at
	}
	s.ended = true
	s.endAt = at
}

// accrueBlocking adds the in-progress blocked interval [blockStart, now) to
// the blocked connection's counters and restarts the interval at now.
func (s *Sim) accrueBlocking(now time.Duration) {
	d := now - s.blockStart
	if d <= 0 {
		return
	}
	s.cumBlocking[s.blockedOn] += d
	s.totalBlocking[s.blockedOn] += d
	s.blockStart = now
}

// handleSplitterSend delivers the rest of the current run, opening a new one
// when none is open — the simulated counterpart of the real splitter's run
// routing: one WRR pick per run of up to BatchSize consecutive tuples, all
// delivered to that connection at one virtual instant, with the next send
// event deferred by the run's combined per-tuple work. A full connection
// blocks the splitter mid-run (one blocking episode; the rest of the run
// waits behind the blocked tuple and follows it to the same connection), or,
// with RerouteOnBlock, the rest of the run moves as a whole to the first
// connection with room. At BatchSize 1 this is exactly the original
// per-tuple behaviour.
func (s *Sim) handleSplitterSend() {
	if s.splitterDone || s.splitterBlock {
		return
	}
	if s.runLeft == 0 {
		if s.cfg.TotalTuples > 0 && s.nextSeq >= s.cfg.TotalTuples {
			s.splitterDone = true
			return
		}
		s.runConn = s.wrr.Next()
		s.runLeft = s.cfg.BatchSize
		if s.cfg.TotalTuples > 0 {
			s.runLeft = int(min(uint64(s.runLeft), s.cfg.TotalTuples-s.nextSeq))
		}
	}
	delivered := 0
	for s.runLeft > 0 {
		j := s.runConn
		if s.inflight[j].Full() {
			if s.cfg.RerouteOnBlock {
				// Section 4.4: try the other connections before electing to
				// block. The scan order follows the round-robin schedule.
				for k := 1; k < s.Connections() && s.runConn == j; k++ {
					if alt := (j + k) % s.Connections(); !s.inflight[alt].Full() {
						s.rerouted++
						s.runConn = alt
					}
				}
				if s.runConn != j {
					continue
				}
			}
			// Elect to block on j, recording how long (Section 3). The
			// remainder of the run waits behind the blocked tuple.
			s.splitterBlock = true
			s.blockedOn = j
			s.blockStart = s.clock
			return
		}
		s.deliverToConnection(j)
		s.runLeft--
		delivered++
	}
	s.sched.schedule(s.clock+time.Duration(delivered)*s.sendInterval(), evSplitterSend, -1)
}

// deliverToConnection enqueues the next tuple on connection j's in-flight
// buffer. The caller must have verified there is space.
func (s *Sim) deliverToConnection(j int) {
	seq := s.nextSeq
	s.nextSeq++
	s.inflight[j].Push(seq)
	s.owner[seq] = pendingTuple{conn: j, sentAt: s.clock}
	s.perConnSent[j]++
	s.totalSent++
	s.startWorkerIfIdle(j)
}

// startWorkerIfIdle begins processing the next buffered tuple on connection j
// if its worker is free. Dequeuing frees in-flight space, which resumes a
// splitter blocked on j.
func (s *Sim) startWorkerIfIdle(j int) {
	if s.state[j] != workerIdle {
		return
	}
	seq, ok := s.inflight[j].Pop()
	if !ok {
		return
	}
	// Mark the worker busy before resuming the splitter: the resumed send
	// re-enters startWorkerIfIdle for this connection and must see it taken.
	s.state[j] = workerBusy
	s.processing[j] = seq
	s.sched.schedule(s.clock+s.serviceTime(j, s.clock), evWorkerFinish, j)
	if s.splitterBlock && s.blockedOn == j {
		s.resumeSplitter()
	}
}

// resumeSplitter ends a blocking episode: the wait is accounted to the
// blocked connection and the blocked tuple is delivered to it; the next send
// event carries on with the rest of its run.
func (s *Sim) resumeSplitter() {
	s.accrueBlocking(s.clock)
	s.splitterBlock = false
	s.deliverToConnection(s.runConn)
	s.runLeft--
	s.sched.schedule(s.clock+s.sendInterval(), evSplitterSend, -1)
}

// handleWorkerFinish completes connection j's current tuple.
func (s *Sim) handleWorkerFinish(j int) {
	if s.state[j] != workerBusy {
		return
	}
	seq := s.processing[j]
	if s.mergerQ[j].Full() {
		// Back pressure from the ordered merge: the worker stalls holding
		// its output until the merger drains (Section 4.1).
		s.state[j] = workerBlockedOnMerger
		s.held[j] = seq
		return
	}
	s.mergerQ[j].Push(seq)
	s.state[j] = workerIdle
	s.drainMerger()
	s.startWorkerIfIdle(j)
}

// drainMerger releases tuples downstream in strict sequence order, cascading
// through any workers the released space unblocks, until the next tuple in
// order is not yet at the merger.
func (s *Sim) drainMerger() {
	for {
		pend, ok := s.owner[s.releaseSeq]
		if !ok {
			return // the next tuple in order has not even been sent yet
		}
		j := pend.conn
		head, ok := s.mergerQ[j].Head()
		if !ok || head != s.releaseSeq {
			return // next tuple in order is still in flight or processing
		}
		s.mergerQ[j].Pop()
		delete(s.owner, s.releaseSeq)
		if s.totalCompleted > 0 {
			if gap := s.clock - s.lastReleaseAt; gap > s.maxReleaseGap {
				s.maxReleaseGap = gap
			}
		}
		s.lastReleaseAt = s.clock
		s.latency.Add((s.clock - pend.sentAt).Seconds())
		if s.cfg.Sink != nil {
			s.cfg.Sink(s.releaseSeq, j)
		}
		s.releaseSeq++
		s.perConnDone[j]++
		s.totalCompleted++
		// The pop freed merger space: un-stall a worker blocked on it.
		if s.state[j] == workerBlockedOnMerger && !s.mergerQ[j].Full() {
			s.mergerQ[j].Push(s.held[j])
			s.state[j] = workerIdle
			s.startWorkerIfIdle(j)
		}
	}
}

// handleController samples blocking counters, runs the policy, applies new
// weights and notifies the observer.
func (s *Sim) handleController() {
	now := s.clock
	if s.splitterBlock {
		// Make in-progress blocking visible to this sample.
		s.accrueBlocking(now)
	}
	rates, reset := s.samplers.Sample(now, s.cumBlocking)
	if reset {
		// Periodic counter reset by the "transport layer" (Figure 2).
		for j := range s.cumBlocking {
			s.cumBlocking[j] = 0
		}
	}
	interval := now - s.lastSampleAt
	tput := 0.0
	if interval > 0 {
		tput = float64(s.totalCompleted-s.lastSampled) / interval.Seconds()
	}
	s.tputHistory = append(s.tputHistory, tput)
	s.lastSampled = s.totalCompleted
	s.lastSampleAt = now

	sn := Snapshot{
		Now:           now,
		BlockingRates: append([]float64(nil), rates...),
		Weights:       append([]int(nil), s.weights...),
		Completed:     s.totalCompleted,
		Throughput:    tput,
	}
	if weights := s.cfg.Policy.OnSample(sn); weights != nil {
		if err := s.wrr.SetWeights(weights); err == nil {
			copy(s.weights, weights)
		}
	}
	if s.cfg.Observer != nil {
		sn.Weights = append([]int(nil), s.weights...)
		s.cfg.Observer(sn)
	}
	// Keep sampling while the run is alive.
	if !s.ended {
		s.sched.schedule(now+s.cfg.SampleInterval, evController, -1)
	}
}

// metrics builds the final report.
func (s *Sim) metrics() Metrics {
	m := Metrics{
		Policy:           s.cfg.Policy.Name(),
		EndTime:          s.endAt,
		Sent:             s.totalSent,
		Completed:        s.totalCompleted,
		PerConnSent:      append([]uint64(nil), s.perConnSent...),
		PerConnCompleted: append([]uint64(nil), s.perConnDone...),
		TotalBlocking:    append([]time.Duration(nil), s.totalBlocking...),
		Rerouted:         s.rerouted,
		FinalWeights:     append([]int(nil), s.weights...),
		MaxReleaseGap:    s.maxReleaseGap,
	}
	if s.endAt > 0 {
		m.MeanThroughput = float64(s.totalCompleted) / s.endAt.Seconds()
	}
	m.LatencyP50 = time.Duration(s.latency.P50() * float64(time.Second))
	m.LatencyP99 = time.Duration(s.latency.P99() * float64(time.Second))
	m.LatencyMax = time.Duration(s.latency.Max() * float64(time.Second))
	// Final throughput: mean over the last quarter of controller ticks.
	if n := len(s.tputHistory); n > 0 {
		start := n - n/4
		if start >= n {
			start = n - 1
		}
		sum := 0.0
		for _, v := range s.tputHistory[start:] {
			sum += v
		}
		m.FinalThroughput = sum / float64(n-start)
	} else {
		m.FinalThroughput = m.MeanThroughput
	}
	return m
}
