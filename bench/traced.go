package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"streambalance/internal/metrics"
	rt "streambalance/internal/runtime"
)

// The traced run produces the per-layer numbers. It has three parts:
//
//   - this workload's segments, alternating untraced reference segments and
//     traced ones (operator stamps, controller weights, RegionMetrics), so
//     that the two see the same host and their throughput gap is the tracing
//     overhead;
//   - region-level rows that do not depend on the workload: the section 6
//     shift scenario traced for the core rows, BatchSize 1, the registry
//     on/off pair;
//   - the layer probes.
//
// Every run prints every per-layer metric, whichever workload it was asked
// for, because that is what the benchmark contract requires of a traced run.

// span names; every sampled tuple has one of each, sharing its sequence
// number as identifier, with "tuple" as the parent of the other three.
var spanNames = [...]string{"tuple", "split_to_op", "op", "op_to_release"}

// tupleSpans is one sampled tuple's stamps, ns on the segment clock.
type tupleSpans struct {
	origin, opIn, opOut, sink int64
}

// durations returns the root span and its three children. The children tile
// the root exactly when the stamps are in order; a stamp out of order (a
// clock read racing a hand-off) is clamped so that no child is negative or
// runs past the root.
func (t tupleSpans) durations() (root int64, child [3]int64) {
	root = t.sink - t.origin
	if root < 0 {
		root = 0
	}
	clamp := func(v int64) int64 {
		if v < t.origin {
			return t.origin
		}
		if v > t.origin+root {
			return t.origin + root
		}
		return v
	}
	in, out := clamp(t.opIn), clamp(t.opOut)
	if out < in {
		out = in
	}
	child[0] = in - t.origin
	child[1] = out - in
	child[2] = t.origin + root - out
	return root, child
}

// medianDecomposition answers "where does the median tuple's time go": the
// mean root and child durations over the tuples whose root span lies between
// the 45th and 55th percentile. Percentiles of each child taken on their own
// would not add up to the root's; these do, by construction.
func medianDecomposition(spans []tupleSpans) (root float64, child [3]float64) {
	roots := make([]float64, len(spans))
	for i, s := range spans {
		r, _ := s.durations()
		roots[i] = float64(r)
	}
	asc := sorted(roots)
	lo, hi := percentile(asc, 45), percentile(asc, 55)
	n := 0.0
	for _, s := range spans {
		r, c := s.durations()
		if f := float64(r); f < lo || f > hi {
			continue
		}
		n++
		root += float64(r)
		for i := range c {
			child[i] += float64(c[i])
		}
	}
	if n == 0 {
		return math.NaN(), child
	}
	root /= n
	for i := range child {
		child[i] /= n
	}
	return root, child
}

// windowSpans collects the measured window's sampled tuples of a traced
// segment.
func windowSpans(r *segResult) []tupleSpans {
	first, last := r.startSeq>>sampleShift, r.endSeq>>sampleShift-1
	out := make([]tupleSpans, 0, last-first+1)
	for k := first; k <= last; k++ {
		out = append(out, tupleSpans{r.origin[k], r.opIn[k], r.opOut[k], r.released[k]})
	}
	return out
}

// traceFile is what bench/out/trace-<workload>.json holds: the span
// definitions once, then one row of stamps per sampled tuple.
type traceFile struct {
	Workload    string              `json:"workload"`
	Seed        int64               `json:"seed"`
	SampleEvery int                 `json:"sample_every"`
	Spans       []map[string]string `json:"spans"`
	Columns     []string            `json:"columns"`
	Rows        [][6]int64          `json:"rows"`
}

const maxTraceRows = 50_000

func writeTrace(dir string, w workload, seed int64, r *segResult) error {
	tf := traceFile{
		Workload:    w.name,
		Seed:        seed,
		SampleEvery: sampleEvery,
		Spans: []map[string]string{
			{"name": spanNames[0], "parent": "", "start": "origin_ns", "end": "sink_ns"},
			{"name": spanNames[1], "parent": spanNames[0], "start": "origin_ns", "end": "op_in_ns"},
			{"name": spanNames[2], "parent": spanNames[0], "start": "op_in_ns", "end": "op_out_ns"},
			{"name": spanNames[3], "parent": spanNames[0], "start": "op_out_ns", "end": "sink_ns"},
		},
		Columns: []string{"seq", "worker", "origin_ns", "op_in_ns", "op_out_ns", "sink_ns"},
	}
	first, last := r.startSeq>>sampleShift, r.endSeq>>sampleShift-1
	for k := first; k <= last && len(tf.Rows) < maxTraceRows; k++ {
		tf.Rows = append(tf.Rows, [6]int64{int64(k << sampleShift), int64(r.worker[k]),
			r.origin[k], r.opIn[k], r.opOut[k], r.released[k]})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+w.name+".json"), data, 0o644)
}

// histMean reads a histogram's mean (sum over count) from a registry.
func histMean(reg *metrics.Registry, name string) float64 {
	var sum, count float64
	for _, s := range reg.Samples() {
		switch s.Name {
		case name + "_sum":
			sum += s.Value
		case name + "_count":
			count += s.Value
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

func counterSum(reg *metrics.Registry, name string) float64 {
	v, _ := reg.SumAcross(name)
	return v
}

// coreRows derives the balancer rows from a traced hetero_shift segment.
func coreRows(r *segResult, m map[string]metric) {
	const win = 250 * time.Millisecond
	first, last := r.startSeq>>sampleShift, r.endSeq>>sampleShift-1
	span := r.released[last] - r.startAt
	buckets := make([]float64, span/int64(win)+1)
	for k := first; k <= last; k++ {
		if b := (r.released[k] - r.startAt) / int64(win); b >= 0 && int(b) < len(buckets) {
			buckets[b] += sampleEvery / win.Seconds()
		}
	}
	buckets = buckets[:len(buckets)-1] // the last one is partial
	shift := int((r.shiftAt - r.startAt) / int64(win))
	if shift > len(buckets) {
		shift = len(buckets)
	}
	// The second half of the pre-shift phase: the first half still holds the
	// initial convergence from even weights.
	pre := median(buckets[shift/2 : shift])
	// adapt_s: from the shift to the start of the first second-long run of
	// windows back at 90 % of that rate. No dip at all gives 0; never
	// recovering gives the whole post-shift phase.
	const sustain = 4
	adapt := float64(len(buckets)-shift) * win.Seconds()
	for b := shift; b+sustain <= len(buckets); b++ {
		ok := true
		for _, v := range buckets[b : b+sustain] {
			ok = ok && v >= 0.9*pre
		}
		if ok {
			adapt = float64(b-shift) * win.Seconds()
			break
		}
	}
	m["core.adapt_s"] = metric{adapt, "s"}

	// weight_l1_error: time-mean over controller ticks in the window of
	// Σ|w_i/Σw − c_i/Σc|, c_i the worker's true capacity at that tick. 0 is
	// the oracle's split, 2 the worst possible.
	capacity := func(at int64) [4]float64 {
		slow := 0
		if r.shiftAt != 0 && at >= r.shiftAt {
			slow = 1
		}
		var c [4]float64
		for i := range c {
			c[i] = 1 / fastService.Seconds()
			if i == slow {
				c[i] = 1 / slowService.Seconds()
			}
		}
		return c
	}
	var l1 []float64
	for _, ws := range r.weights {
		if ws.at < r.startAt || len(ws.weights) != 4 {
			continue
		}
		c := capacity(ws.at)
		var wsum, csum float64
		for i := range c {
			wsum += float64(ws.weights[i])
			csum += c[i]
		}
		e := 0.0
		for i := range c {
			e += math.Abs(float64(ws.weights[i])/wsum - c[i]/csum)
		}
		l1 = append(l1, e)
	}
	m["core.weight_l1_error"] = metric{mean(l1), "share"}
	reb := counterSum(r.reg, "spe_balancer_rebalances_total")
	m["core.rebalances"] = metric{reb, "count"}
	iters := 0.0
	if reb > 0 {
		iters = counterSum(r.reg, "spe_balancer_optimizer_iterations_total") / reb
	}
	m["core.solver_iters_per_rebalance"] = metric{iters, "count"}
}

// segmentTotals sums what the per-tuple shares are taken over.
type segmentTotals struct {
	emitted                  float64
	elapsed, blocking, slept time.Duration
	cpu, gcPause             time.Duration
	mallocs, bytes           float64
}

func totals(segs []*segResult) segmentTotals {
	var t segmentTotals
	for _, r := range segs {
		t.emitted += float64(r.emitted)
		t.elapsed += r.elapsed
		t.blocking += r.blocking
		t.slept += r.slept
		t.cpu += r.cpu
		t.gcPause += r.gcPause
		t.mallocs += float64(r.mallocs)
		t.bytes += float64(r.bytes)
	}
	return t
}

func segTuples(segs []*segResult) []float64 {
	v := make([]float64, len(segs))
	for i, r := range segs {
		v[i] = r.tuplesPerS
	}
	return v
}

// tracedRows derives the rows that come from this workload's traced
// segments.
func tracedRows(w workload, traced []*segResult, m map[string]metric) {
	var spans []tupleSpans
	var opBusy int64
	var flushMean, ingestMean, wouldBlock, parks, wakes float64
	for _, r := range traced {
		spans = append(spans, windowSpans(r)...)
		for k := uint64(0); k < r.endSeq>>sampleShift; k++ {
			opBusy += (r.opOut[k] - r.opIn[k]) * sampleEvery
		}
		n := float64(len(traced))
		flushMean += histMean(r.reg, "spe_splitter_batch_tuples") / n
		ingestMean += histMean(r.reg, "spe_merger_ingest_batch_tuples") / n
		wouldBlock += counterSum(r.reg, "spe_splitter_send_would_block_total")
		parks += counterSum(r.reg, "spe_merger_ingest_parks_total")
		wakes += counterSum(r.reg, "spe_merger_merge_wakes_total")
	}
	root, child := medianDecomposition(spans)
	m["runtime.tuple_p50_us"] = metric{root / 1e3, "us"}
	m["runtime.split_to_op_p50_us"] = metric{child[0] / 1e3, "us"}
	m["runtime.op_p50_us"] = metric{child[1] / 1e3, "us"}
	m["runtime.op_to_release_p50_us"] = metric{child[2] / 1e3, "us"}

	t := totals(traced)
	ktuples := t.emitted / 1000
	// Time the splitter goroutine was neither parked in a send nor asleep in
	// the generator. At GOMAXPROCS=1 that includes waiting for the processor.
	m["runtime.splitter_busy_ns_per_tuple"] = metric{float64(t.elapsed-t.blocking-t.slept) / t.emitted, "ns"}
	m["runtime.splitter_blocked_share"] = metric{float64(t.blocking) / float64(t.elapsed), "share"}
	m["runtime.worker_op_busy_share"] = metric{float64(opBusy) / (float64(t.elapsed) * float64(w.workers)), "share"}
	m["runtime.splitter_tuples_per_flush"] = metric{flushMean, "count"}
	m["runtime.splitter_would_block_per_ktuple"] = metric{wouldBlock / ktuples, "count"}
	m["runtime.merger_parks_per_ktuple"] = metric{parks / ktuples, "count"}
	m["runtime.merger_wakes_per_ktuple"] = metric{wakes / ktuples, "count"}
	m["runtime.merger_ingest_batch_mean"] = metric{ingestMean, "count"}
}

// regionRows derives the ungated region rows from the untraced reference
// segments.
func regionRows(ref []*segResult, m map[string]metric) {
	var lat []float64
	stalls := 0.0
	var oversleep []float64
	for _, r := range ref {
		lat = append(lat, r.latUs...)
		for _, l := range r.latUs {
			if l > 100_000 {
				stalls++
				break
			}
		}
		for _, o := range r.oversleep {
			oversleep = append(oversleep, float64(o)/1e3)
		}
	}
	asc := sorted(lat)
	m["runtime.region_lat_p50_us"] = metric{percentile(asc, 50), "us"}
	m["runtime.region_lat_p95_us"] = metric{percentile(asc, 95), "us"}
	m["runtime.region_lat_p99_us"] = metric{percentile(asc, 99), "us"}
	m["runtime.region_lat_max_us"] = metric{percentile(asc, 100), "us"}
	m["runtime.region_stall_segments"] = metric{stalls, "count"}

	t := totals(ref)
	m["runtime.region_cpu_us_per_tuple"] = metric{float64(t.cpu) / 1e3 / t.emitted, "us"}
	m["runtime.region_allocs_per_ktuple"] = metric{t.mallocs / t.emitted * 1000, "count"}
	m["runtime.region_alloc_bytes_per_tuple"] = metric{t.bytes / t.emitted, "B"}
	m["runtime.region_gc_pause_ms"] = metric{float64(t.gcPause) / 1e6, "ms"}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["runtime.region_peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
	} else {
		m["runtime.region_peak_rss_mb"] = metric{0, "MB"}
	}
	tps := segTuples(ref)
	m["runtime.region_tuples_per_s_median"] = metric{median(tps), "1/s"}
	m["runtime.region_tuples_per_s_iqr_pct"] = metric{100 * iqrShare(tps), "%"}

	// The closed-loop generators never sleep, so they have no oversleep.
	asc = sorted(oversleep)
	p50, p99 := 0.0, 0.0
	if len(asc) > 0 {
		p50, p99 = percentile(asc, 50), percentile(asc, 99)
	}
	m["bench.gen_oversleep_p50_us"] = metric{p50, "us"}
	m["bench.gen_oversleep_p99_us"] = metric{p99, "us"}
}

// several runs n segments of w and stops at the first that fails.
func several(run func(workload, segOpts) (*segResult, error), w workload, o segOpts, n int) ([]*segResult, error) {
	var out []*segResult
	for i := 0; i < n; i++ {
		r, err := run(w, o)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func runTraced(w workload, o options, so segOpts, rec *record) error {
	m := map[string]metric{}
	// Every segment of the traced run is checked like any other and counts
	// towards attempted and failed, also when it ends the run with an error.
	counted := func(w workload, o segOpts) (*segResult, error) {
		r, err := runSegment(w, o)
		if r != nil {
			rec.Result.Attempted += r.attempted
			rec.Result.Failed += r.failed
		}
		return r, err
	}
	// Everything below is sized for the contract's run length. A shorter run
	// is a smoke run: one of everything, and only the shift scenario keeps a
	// floor, because it needs ten controller ticks to mean anything.
	full := o.seconds >= runSeconds
	reps := func(n int) int {
		if full {
			return n
		}
		return 1
	}
	scaled := func(d time.Duration) time.Duration {
		if full {
			return d
		}
		return time.Duration(float64(d) * o.seconds / runSeconds)
	}
	const shiftFloor = time.Second
	p := planFor(w, o.seconds)
	so.warm, so.batch, so.window = p.warm, batchSize, p.window
	// Sized so that a traced run takes about as long as an untraced one.
	pairs := reps(3)
	switch {
	case w.hetero:
		pairs, so.window = 1, p.window/3
	case w.paced:
		pairs = reps(2)
	}

	setProcs(w.procs)
	tcp := w.transport == rt.TransportTCP
	refBefore, err := hostRef(tcp)
	if err != nil {
		return err
	}
	var ref, traced []*segResult
	for i := 0; i < pairs; i++ {
		r, err := counted(w, so)
		if err != nil {
			return err
		}
		ref = append(ref, r)
		to := so
		to.traced = true
		if w.hetero && to.window < shiftFloor {
			to.window = shiftFloor
		}
		r, err = counted(w, to)
		if err != nil {
			return err
		}
		traced = append(traced, r)
	}
	regionRows(ref, m)
	tracedRows(w, traced, m)
	// The rows above and below are as timed; this says how fast the host was
	// running meanwhile (see hostRef), for reading them side by side.
	refAfter, err := hostRef(tcp)
	if err != nil {
		return err
	}
	m["bench.host_speed"] = metric{hostSpeed(refBefore, refAfter), "share"}
	m["bench.trace_overhead_pct"] = metric{100 * (1 - median(segTuples(traced))/median(segTuples(ref))), "%"}
	if err := writeTrace(o.traceDir, w, o.seed, traced[0]); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}

	// The core rows come from the section 6 scenario. hetero_shift's own
	// traced segment is that scenario; the other workloads run a shorter one.
	shiftSeg := traced[0]
	hetero, _ := findWorkload("hetero_shift")
	sat, _ := findWorkload("tcp_sat")
	if !w.hetero {
		setProcs(hetero.procs)
		ho := so
		ho.traced, ho.window = true, scaled(6*time.Second)
		if ho.window < shiftFloor {
			ho.window = shiftFloor
		}
		var err error
		if shiftSeg, err = counted(hetero, ho); err != nil {
			return err
		}
	}
	coreRows(shiftSeg, m)

	// The parallel-scaling reference: this workload with every processor.
	// paced_tcp and hetero_shift already run that way.
	p2 := m["runtime.region_tuples_per_s_median"].Value
	if w.procs != 0 {
		setProcs(0)
		segs, err := several(counted, w, so, reps(2))
		if err != nil {
			return err
		}
		p2 = median(segTuples(segs))
	}
	m["runtime.region_tuples_per_s_p2"] = metric{p2, "1/s"}

	// The per-tuple send path and the cost of the metrics registry: tcp_sat
	// segments with one setting changed.
	setProcs(sat.procs)
	po := so
	po.window = scaled(time.Second)
	b1 := po
	b1.batch = 1
	segs, err := several(counted, sat, b1, reps(2))
	if err != nil {
		return err
	}
	m["runtime.region_tcp_b1_tuples_per_s"] = metric{median(segTuples(segs)), "1/s"}
	var off, on []float64
	for i := 0; i < reps(2); i++ {
		r, err := counted(sat, po)
		if err != nil {
			return err
		}
		off = append(off, r.tuplesPerS)
		mo := po
		mo.withMetrics = true
		if r, err = counted(sat, mo); err != nil {
			return err
		}
		on = append(on, r.tuplesPerS)
	}
	m["metrics.registry_overhead_pct"] = metric{100 * (1 - median(on)/median(off)), "%"}

	if err := runProbes(o.seed, scaled(50*time.Millisecond), m); err != nil {
		return err
	}
	rec.Result.Metrics = m
	return nil
}
