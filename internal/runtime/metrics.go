package runtime

import (
	"fmt"
	"strconv"

	"streambalance/internal/metrics"
)

// RegionMetrics bundles every instrument one region exports: the splitter's
// per-connection blocking signal (the paper's Section 3 input), the
// balancer's decisions (Section 3.4 weight vectors, solver cost, cluster
// count), the merger's release progress, and the recovery protocol's
// events. Construct one per region from a metrics.Registry and pass it
// through RegionConfig (or SplitterConfig plus Merger.SetMetrics when the
// components run as separate processes); nil disables instrumentation with
// zero hot-path cost.
//
// One rule decides how each instrument is fed (DESIGN §10). A count the data
// path already keeps for its own work — the senders' totals, the merger's
// watermark, released and dedup counts, depths and ingest stamps, the workers'
// combiner hits — is bound to a reader (metrics.Counter.SetFunc) and read at
// scrape time. What exists only to be observed — histograms, events, per-tick
// rates and weights, the trace — is pushed where it happens, never per tuple.
// The readers belong to the components the bundle was handed to, hence one
// per region: binding twice replaces the reader.
//
// The trace ring records the balancer's decision history — every rebalance
// with its weight vector and objective, and worker down/replay/rejoin
// events — so a live region's behaviour can be reconstructed from /trace
// after the fact.
type RegionMetrics struct {
	reg   *metrics.Registry
	trace *metrics.Trace

	// Splitter / transport.
	tuplesSent      *metrics.CounterVec
	blockingSeconds *metrics.CounterVec
	wouldBlock      *metrics.CounterVec
	blockingRate    *metrics.GaugeVec
	connUp          *metrics.GaugeVec
	connLifetime    *metrics.Histogram
	replayDepth     *metrics.Gauge
	schedulePicks   *metrics.Counter
	redialAttempts  *metrics.CounterVec
	batchFlushes    *metrics.Counter
	batchTuples     *metrics.Histogram
	coalescing      *metrics.GaugeVec
	keyImbalance    *metrics.Gauge
	inflight        *metrics.GaugeVec
	inflightBound   *metrics.GaugeVec
	serviceRate     *metrics.GaugeVec

	// Balancer / controller.
	weight        *metrics.GaugeVec
	rebalances    *metrics.Counter
	optIterations *metrics.Counter
	objective     *metrics.Gauge
	clusterCount  *metrics.Gauge
	changePoints  *metrics.CounterVec

	// Merger.
	released          *metrics.Counter
	watermark         *metrics.Gauge
	queueDepth        *metrics.GaugeVec
	ringDepth         *metrics.GaugeVec
	deduped           *metrics.Counter
	dupRejects        *metrics.Counter
	ingestBatchTuples *metrics.Histogram
	ingestParks       *metrics.Counter
	mergeWakes        *metrics.Counter
	stallSeconds      *metrics.Histogram
	ingestAge         *metrics.GaugeVec
	combinedReleased  *metrics.Counter

	// Worker (in-process regions; TCP worker processes export their own).
	combinerHits *metrics.Counter

	// Recovery.
	workerDown     *metrics.CounterVec
	replays        *metrics.CounterVec
	replayedTuples *metrics.CounterVec
	rejoins        *metrics.CounterVec
	quarantines    *metrics.Counter
}

// NewRegionMetrics registers the region's instrument set on reg. tr may be
// nil to disable decision tracing while keeping metrics.
func NewRegionMetrics(reg *metrics.Registry, tr *metrics.Trace) *RegionMetrics {
	lifetimeBuckets := []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}
	return &RegionMetrics{
		reg:   reg,
		trace: tr,

		tuplesSent: reg.CounterVec("spe_splitter_tuples_sent_total",
			"Tuples sent per worker connection, including replays.", "conn"),
		blockingSeconds: reg.CounterVec("spe_splitter_blocking_seconds_total",
			"Lifetime time the splitter spent blocked in send per connection (Section 3 cumulative blocking).", "conn"),
		wouldBlock: reg.CounterVec("spe_splitter_send_would_block_total",
			"Sends that found the socket buffer full and elected to block, per connection.", "conn"),
		blockingRate: reg.GaugeVec("spe_splitter_blocking_rate",
			"Latest sampled blocking rate per connection (seconds blocked per second, the balancer's input signal).", "conn"),
		connUp: reg.GaugeVec("spe_splitter_conn_up",
			"1 while the worker connection is live, 0 after a failure.", "conn"),
		connLifetime: reg.Histogram("spe_splitter_conn_lifetime_seconds",
			"Lifetimes of worker connections that ended (dial to failure).", lifetimeBuckets),
		replayDepth: reg.Gauge("spe_splitter_replay_buffer_tuples",
			"Sent-but-unreleased tuples currently retained for replay."),
		schedulePicks: reg.Counter("spe_schedule_picks_total",
			"Weighted round-robin picks: one per run of consecutive tuples, and one per replayed tuple."),
		redialAttempts: reg.CounterVec("spe_transport_redial_attempts_total",
			"Dial attempts made while reconnecting to a failed worker, per connection.", "conn"),
		batchFlushes: reg.Counter("spe_splitter_batch_flushes_total",
			"Writes the splitter completed: one per write of a connection's pending output, which is what one round gave it, or a congested connection's whole rounds."),
		batchTuples: reg.Histogram("spe_splitter_batch_tuples",
			"Tuples per write.", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}),
		coalescing: reg.GaugeVec("spe_splitter_conn_coalescing",
			"1 while the connection is congested (its socket blocked in the last sample interval, which the splitter did not spend nearly all parked) and holds its output across rounds, written at the first round end at which it reaches a quarter of the socket buffer.", "conn"),
		inflight: reg.GaugeVec("spe_splitter_conn_inflight_tuples",
			"Tuples written to the worker connection that its worker has not yet acked as forwarded.", "conn"),
		inflightBound: reg.GaugeVec("spe_splitter_conn_inflight_bound_tuples",
			"The connection's in-flight bound: its weight share of the region's forward rate times 10 ms, at least two runs; the splitter waits for credit past it. Every acking connection starts at the two-run floor; 0 on an edge that never acks.", "conn"),
		serviceRate: reg.GaugeVec("spe_splitter_conn_service_rate",
			"The worker's smoothed service rate in tuples/s: its acked tuples per second over the sample intervals the splitter spent at least half waiting for its credit, as the balancer's change-point detector holds it (0 before such an interval, or without a balancer).", "conn"),
		keyImbalance: reg.Gauge("spe_splitter_key_imbalance",
			"Keyed-routing imbalance over the last sample interval: (max-mean)/mean of per-connection keyed assignments (0 = perfectly even)."),

		weight: reg.GaugeVec("spe_balancer_weight_units",
			"Current allocation weight per connection, in units summing to the balancer's R (Section 3.4).", "conn"),
		rebalances: reg.Counter("spe_balancer_rebalances_total",
			"Rebalance rounds the controller has run."),
		optIterations: reg.Counter("spe_balancer_optimizer_iterations_total",
			"Cumulative RAP-solver iterations across rebalances."),
		objective: reg.Gauge("spe_balancer_objective_blocking_rate",
			"Objective value (max predicted blocking rate) of the last rebalance."),
		clusterCount: reg.Gauge("spe_balancer_clusters",
			"Clusters used by the last rebalance (0 when unclustered)."),
		changePoints: reg.CounterVec("spe_balancer_change_points_total",
			"Change points per connection: its measured service rate left its reference by more than 2x in two consecutive valid intervals, so the balancer moved its blocking-rate function onto the new rate and the other connections forgot their observations above their weights.", "conn"),

		released: reg.Counter("spe_merger_tuples_released_total",
			"Tuples released downstream in strict sequence order."),
		watermark: reg.Gauge("spe_merger_watermark",
			"Lowest unreleased sequence number (count of contiguously released tuples)."),
		queueDepth: reg.GaugeVec("spe_merger_queue_tuples",
			"Reorder-heap occupancy per worker connection.", "conn"),
		ringDepth: reg.GaugeVec("spe_merger_ring_tuples",
			"SPSC ingest-ring occupancy per worker connection (lock-free hand-off lane to the merge loop).", "conn"),
		deduped: reg.Counter("spe_merger_deduped_total",
			"Replayed duplicates dropped to keep the exactly-once release guarantee."),
		dupRejects: reg.Counter("spe_merger_dup_rejects_total",
			"Connections rejected for claiming a worker id whose stream was still live."),
		ingestBatchTuples: reg.Histogram("spe_merger_ingest_batch_tuples",
			"Tuples ingested per ReceiveBatch pass (receive-batch size).",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}),
		ingestParks: reg.Counter("spe_merger_ingest_parks_total",
			"Times a connection reader parked (back-pressure cap or full ring)."),
		mergeWakes: reg.Counter("spe_merger_merge_wakes_total",
			"Times the merge loop parked for input and was woken."),
		stallSeconds: reg.Histogram("spe_merger_stall_seconds",
			"Durations of merge-stall episodes (watermark stuck past the stall window until it advanced again), pushed by the splitter's stall check.",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60}),
		ingestAge: reg.GaugeVec("spe_worker_last_ingest_age_seconds",
			"Seconds since the merger last ingested a batch from each worker connection.", "conn"),
		combinedReleased: reg.Counter("spe_merger_combined_released_total",
			"Sequence numbers released via combined-carrier absorption (watermark advanced with no sink call)."),
		combinerHits: reg.Counter("spe_worker_combiner_hits_total",
			"Tuples absorbed into same-key carriers by worker-side combiners before the ordered merge."),

		workerDown: reg.CounterVec("spe_recovery_worker_down_total",
			"Worker connection failures observed by the splitter, per connection.", "conn"),
		replays: reg.CounterVec("spe_recovery_replays_total",
			"Replay rounds run after a worker failure, per failed connection.", "conn"),
		replayedTuples: reg.CounterVec("spe_recovery_replayed_tuples_total",
			"Tuples re-sent to survivors after worker failures, per failed connection.", "conn"),
		rejoins: reg.CounterVec("spe_recovery_rejoins_total",
			"Redialed workers re-admitted into the schedule, per connection.", "conn"),
		quarantines: reg.Counter("spe_quarantine_events_total",
			"Workers ejected by the splitter's merge-stall check."),
	}
}

// Registry returns the registry the instruments live on (for /metrics).
func (m *RegionMetrics) Registry() *metrics.Registry { return m.reg }

// Trace returns the decision-trace ring, or nil when tracing is disabled.
func (m *RegionMetrics) Trace() *metrics.Trace { return m.trace }

// connInstruments caches one stable worker id's pushed child handles so the
// tick touches pre-resolved atomics instead of label maps.
type connInstruments struct {
	rate       *metrics.Gauge
	up         *metrics.Gauge
	weight     *metrics.Gauge
	redials    *metrics.Counter
	coalescing *metrics.Gauge
	service    *metrics.Gauge
}

// conn resolves the per-connection handles for one stable worker id.
func (m *RegionMetrics) conn(id int) connInstruments {
	l := strconv.Itoa(id)
	return connInstruments{
		rate:       m.blockingRate.With(l),
		up:         m.connUp.With(l),
		weight:     m.weight.With(l),
		redials:    m.redialAttempts.With(l),
		coalescing: m.coalescing.With(l),
		service:    m.serviceRate.With(l),
	}
}

// bindConnTotals binds one stable worker id's three transport totals to the
// splitter's own sum over the id's retired and live connections, and its
// in-flight gauges to the live connection's counts, read at scrape time: one
// short lock acquisition per series per scrape.
func (m *RegionMetrics) bindConnTotals(id int, sp *Splitter) {
	l := strconv.Itoa(id)
	m.tuplesSent.With(l).SetFunc(func() float64 { sent, _, _ := sp.connTotals(id); return float64(sent) })
	m.blockingSeconds.With(l).SetFunc(func() float64 { _, blocking, _ := sp.connTotals(id); return blocking.Seconds() })
	m.wouldBlock.With(l).SetFunc(func() float64 { _, _, wouldBlock := sp.connTotals(id); return float64(wouldBlock) })
	m.inflight.With(l).SetFunc(func() float64 { n, _ := sp.connInflight(id); return float64(n) })
	m.inflightBound.With(l).SetFunc(func() float64 { _, b := sp.connInflight(id); return float64(b) })
}

// traceEvent appends to the decision trace when tracing is enabled.
func (m *RegionMetrics) traceEvent(ev metrics.Event) {
	if m.trace != nil {
		m.trace.Add(ev)
	}
}

// connEvent records a splitter recovery event on counters and the trace.
func (m *RegionMetrics) connEvent(ev ConnEvent) {
	l := strconv.Itoa(ev.Conn)
	tev := metrics.Event{Kind: ev.Kind, Conn: ev.Conn}
	switch ev.Kind {
	case "down":
		m.workerDown.With(l).Inc()
		m.connUp.With(l).Set(0)
		m.coalescing.With(l).Set(0)
		if ev.Err != nil {
			tev.Detail = ev.Err.Error()
		}
	case "replay":
		m.replays.With(l).Inc()
		m.replayedTuples.With(l).Add(float64(ev.Tuples))
		tev.Value = float64(ev.Tuples)
	case "rejoin":
		m.rejoins.With(l).Inc()
		m.connUp.With(l).Set(1)
	case "quarantine":
		m.quarantines.Inc()
	case "evicted", "redial-exhausted":
		if ev.Err != nil {
			tev.Detail = ev.Err.Error()
		}
	}
	m.traceEvent(tev)
}

// changePoint records a change point on stable worker id, at the service
// rate the balancer now holds for it.
func (m *RegionMetrics) changePoint(id int, rate float64) {
	m.changePoints.With(strconv.Itoa(id)).Inc()
	m.traceEvent(metrics.Event{Kind: "change-point", Conn: id, Value: rate})
}

// rebalance records one controller decision: the counters, the decision
// gauges, and a trace event carrying the full weight vector.
func (m *RegionMetrics) rebalance(weights []int, objective float64, iterations, clusters int) {
	m.rebalances.Inc()
	m.optIterations.Add(float64(iterations))
	m.objective.Set(objective)
	m.clusterCount.Set(float64(clusters))
	m.traceEvent(metrics.Event{
		Kind:   "rebalance",
		Conn:   -1,
		Value:  objective,
		Detail: fmt.Sprint(weights),
	})
}
