package main

import (
	"fmt"
	"runtime"
	"time"

	rt "streambalance/internal/runtime"
)

// plan is how a workload spends its measuring time.
type plan struct {
	segments int           // measured segments, each on a fresh region
	window   time.Duration // measured time per segment
	warm     time.Duration
}

// planFor fits w into a run of the given length: warm-ups and measured
// windows add up to it, and teardown, the GC between segments and the host
// reference cost another 0.1-0.15 s per segment on top. The saturated
// workloads use many 1 s segments, each on a fresh region with a host-speed
// reading on either side, because this kind of host changes speed every few
// seconds (see hostref.go); the paced one needs 2 s to collect enough bursts
// per segment; hetero_shift is one long segment, because what it measures is
// a convergence that takes seconds, so it has one set-up sample per run.
func planFor(w workload, seconds float64) plan {
	p := plan{warm: warmup}
	switch {
	case w.hetero:
		p.segments = 1
		p.window = time.Duration((seconds - 0.5) * float64(time.Second))
	case w.paced:
		p.window = 2 * time.Second
		p.segments = int(seconds / 2.2)
	default:
		p.window = time.Second
		p.segments = int(seconds / 1.2)
	}
	if p.segments < 1 || p.window < time.Second {
		// Too short a run for the rule "no segment under 1 s measured": one
		// segment, a third of it warm-up. Only smoke runs get here.
		p.segments = 1
		total := time.Duration(seconds * float64(time.Second))
		if p.warm > total/3 {
			p.warm = total / 3
		}
		p.window = total - p.warm
	}
	return p
}

// setProcs sets GOMAXPROCS for what runs next (0: every CPU) and returns it.
func setProcs(procs int) int {
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(procs)
	return procs
}

// endToEnd is a workload's untraced result: the numbers a user of the region
// would see.
type endToEnd struct {
	Segments   int     `json:"segments"`
	Attempted  uint64  `json:"attempted"`
	Failed     uint64  `json:"failed"`
	TuplesPerS float64 `json:"tuples_per_s"`
	SetupS     float64 `json:"setup_s"`
	// LatP50Us is reported but not gated, see README.md.
	LatP50Us float64 `json:"lat_p50_us"`

	SegTuples []float64 `json:"segment_tuples_per_s"` // as timed
	SegSpeed  []float64 `json:"segment_host_speed,omitempty"`
	// SegRefMs is every reading of the host reference, [hand-off, stream] in
	// ms: one before the first segment, then one after each.
	SegRefMs  [][2]float64 `json:"segment_host_ref_ms,omitempty"`
	SegLatP50 []float64    `json:"segment_lat_p50_us"`
	SegSetup  []float64    `json:"segment_setup_s"`
}

// runEndToEnd runs the plan with tracing off. The caller has set GOMAXPROCS.
func runEndToEnd(w workload, p plan, o segOpts) (*endToEnd, error) {
	e := &endToEnd{Segments: p.segments}
	o.warm, o.batch = p.warm, batchSize
	o.window = p.window
	// ref reads the host reference and keeps the reading for -out.
	ref := func() (refReading, error) {
		r, err := hostRef(w.transport == rt.TransportTCP)
		e.SegRefMs = append(e.SegRefMs, [2]float64{float64(r.handoff) / 1e6, float64(r.stream) / 1e6})
		return r, err
	}
	var before, after refReading
	var err error
	if w.cpuBound() {
		if before, err = ref(); err != nil {
			return e, err
		}
	}
	for i := 0; i < p.segments; i++ {
		r, err := runSegment(w, o)
		if r != nil {
			e.Attempted += r.attempted
			e.Failed += r.failed
		}
		if err != nil {
			return e, err
		}
		if w.cpuBound() {
			if after, err = ref(); err != nil {
				return e, err
			}
			e.SegSpeed = append(e.SegSpeed, hostSpeed(before, after))
			before = after
		}
		e.SegTuples = append(e.SegTuples, r.tuplesPerS)
		e.SegLatP50 = append(e.SegLatP50, median(r.latUs))
		e.SegSetup = append(e.SegSetup, r.setupS)
	}
	if e.Attempted == 0 {
		return e, fmt.Errorf("%s: nothing was measured", w.name)
	}
	e.TuplesPerS = summariseTuples(e.SegTuples, e.SegSpeed)
	e.LatP50Us = median(e.SegLatP50)
	e.SetupS = lowQuarterMean(e.SegSetup)
	return e, nil
}

// summariseTuples turns per-segment throughputs into the workload's
// tuples_per_s. The saturated closed loops are CPU-bound, so each segment's
// throughput is divided by the host's speed during it and the median segment
// is reported: tuples per second at the sizing host's usual speed. paced_tcp
// delivers what the schedule offers and hetero_shift sleeps its service
// times, so the host's speed does not enter and they report tuples released
// over time elapsed.
func summariseTuples(segs, speed []float64) float64 {
	if len(speed) == 0 {
		return mean(segs)
	}
	scaled := make([]float64, len(segs))
	for i := range segs {
		scaled[i] = segs[i] / speed[i]
	}
	return median(scaled)
}
