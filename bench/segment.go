package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/metrics"
	rt "streambalance/internal/runtime"
	"streambalance/internal/transport"
)

const (
	payloadSize = 64
	// poolSize distinct payloads, so neighbouring tuples never carry the
	// same bytes and a payload delivered under the wrong sequence number is
	// caught (unless it is off by a whole multiple of the pool).
	poolSize = 1024
	// One tuple in sampleEvery is timestamped at every boundary the bench
	// can see. The phase changes of a segment also happen only on sampled
	// tuples, so the clock is read once per 64 tuples, not once per tuple.
	sampleShift = 6
	sampleEvery = 1 << sampleShift
	batchSize   = 32
	warmup      = 200 * time.Millisecond
	// maxRate bounds the stamp arrays: no region on this code base comes
	// near 16 M tuples/s, and a segment that does simply ends early.
	maxRate = 16_000_000

	fastService = 40 * time.Microsecond
	slowService = 120 * time.Microsecond
)

// workload is one named set of inputs. The region receives nothing but what
// is generated here from the seed.
type workload struct {
	name      string
	why       string
	transport rt.TransportKind
	workers   int
	procs     int // GOMAXPROCS while it runs; 0 means nproc
	paced     bool
	hetero    bool
}

var workloads = []workload{
	{name: "tcp_sat", transport: rt.TransportTCP, workers: 2, procs: 1,
		why: "closed loop over TCP at GOMAXPROCS=1: framing, writev, receive decode and merger ingest do the work; balancer and operators do none"},
	{name: "inproc_sat", transport: rt.TransportInproc, workers: 2, procs: 1,
		why: "closed loop over the in-process transport: WRR, splitter staging, ring hand-off and the merge loop dominate; a transport change must show here as no change"},
	{name: "paced_tcp", transport: rt.TransportTCP, workers: 2, paced: true,
		why: "open loop at 200 k tuples/s in 384-tuple bursts over TCP: sparse flushes, park/wake on every hop, empty queues; gates that the rate is sustained; its latency is reported per layer, not gated"},
	{name: "hetero_shift", transport: rt.TransportTCP, workers: 4, hetero: true,
		why: "the paper's section 6: 4 slept-service workers, one 3x slower, the slow one moves at the midpoint; throughput is set by balancer and WRR decisions, not by the data plane"},
}

// cpuBound says whether the workload's throughput is set by how fast the
// host executes it: the saturated closed loops over Identity operators.
func (w workload) cpuBound() bool { return !w.paced && !w.hetero }

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// segOpts is everything about one segment that is not the workload itself.
type segOpts struct {
	seed   int64
	warm   time.Duration
	window time.Duration
	batch  int // splitter BatchSize
	// traced stamps operator entry and exit on sampled tuples, records the
	// controller's weights and attaches RegionMetrics.
	traced bool
	// withMetrics attaches RegionMetrics and nothing else (the registry
	// overhead row).
	withMetrics bool
	// corruptSink makes the sink's expected payload wrong for one pool
	// entry; tests use it to prove a failed check fails the command.
	corruptSink bool
}

type weightSample struct {
	at      int64 // ns on the segment clock
	weights []int
}

// segResult is what one segment measured. Times are ns on the segment's own
// clock, which starts just before NewRegion.
type segResult struct {
	attempted  uint64 // tuples emitted in the measured window
	failed     uint64
	tuplesPerS float64
	latUs      []float64 // time in system of the window's sampled tuples
	setupS     float64

	emitted  uint64 // whole segment, warm-up included
	elapsed  time.Duration
	blocking time.Duration // Σ TotalBlocking over connections
	slept    time.Duration // generator sleep (paced only)

	startSeq, endSeq uint64
	warmEnd          int64 // the first Source call plus the warm-up
	startAt, shiftAt int64
	origin, released []int64 // per sampled tuple
	opIn, opOut      []int64 // traced only
	worker           []uint8
	oversleep        []int64
	weights          []weightSample
	reg              *metrics.Registry

	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause time.Duration
}

// segment is the state shared by the Source, Operator and Sink wrappers of
// one region run. The source fields are touched only by the splitter
// goroutine and the sink fields only by the merge goroutine; everything is
// read after Region.Run has returned.
type segment struct {
	w     workload
	o     segOpts
	clock func() int64
	pool  [][]byte
	want  [][]byte // what the sink checks against; pool unless corrupted

	// source side
	pacer      *pacer
	measuring  bool
	windowEnd  int64
	maxSamples uint64
	ops        []*rt.ServiceOperator
	res        *segResult

	// sink side
	next  uint64
	count uint64
	bad   uint64
}

// payloadPool derives the payloads from the seed. Byte 0 of entry i is i's
// low byte so that no two neighbouring entries can coincide.
func payloadPool(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	backing := make([]byte, poolSize*payloadSize)
	rng.Read(backing)
	pool := make([][]byte, poolSize)
	for i := range pool {
		pool[i] = backing[i*payloadSize : (i+1)*payloadSize : (i+1)*payloadSize]
		pool[i][0] = byte(i)
	}
	return pool
}

func (s *segment) source(seq uint64) ([]byte, bool) {
	var origin int64
	if s.pacer != nil {
		origin = s.pacer.wait(seq)
	}
	if seq&(sampleEvery-1) == 0 {
		now := s.clock()
		k := seq >> sampleShift
		r := s.res
		switch {
		case seq == 0:
			r.warmEnd = now + int64(s.o.warm)
		case !s.measuring && now >= r.warmEnd:
			r.startSeq, r.startAt = seq, now
			s.measuring = true
			s.windowEnd = now + int64(s.o.window)
		case s.measuring && (now >= s.windowEnd || k >= s.maxSamples):
			r.endSeq = seq
			return nil, false
		}
		if k >= s.maxSamples {
			// Only reachable in the warm-up, at a rate no region reaches.
			r.endSeq = seq
			return nil, false
		}
		if s.w.hetero && s.measuring && r.shiftAt == 0 && now >= r.startAt+int64(s.o.window)/2 {
			s.ops[0].SetService(fastService)
			s.ops[1].SetService(slowService)
			r.shiftAt = now
		}
		if s.pacer == nil {
			origin = now
		}
		r.origin[k] = origin
	}
	return s.pool[seq&(poolSize-1)], true
}

func (s *segment) sink(t transport.Tuple, worker int) {
	if t.Seq != s.next || !bytes.Equal(t.Payload, s.want[t.Seq&(poolSize-1)]) {
		s.bad++
	}
	s.next = t.Seq + 1
	s.count++
	if t.Seq&(sampleEvery-1) == 0 {
		if k := t.Seq >> sampleShift; k < s.maxSamples {
			s.res.released[k] = s.clock()
			s.res.worker[k] = uint8(worker)
		}
	}
}

// stampedOp wraps an operator with the entry and exit stamps of the traced
// run. It adds one mask test per tuple and two clock reads per sampled one.
type stampedOp struct {
	inner rt.Operator
	seg   *segment
}

func (op stampedOp) Process(t transport.Tuple) transport.Tuple {
	if t.Seq&(sampleEvery-1) != 0 {
		return op.inner.Process(t)
	}
	k := t.Seq >> sampleShift
	if k >= op.seg.maxSamples {
		return op.inner.Process(t)
	}
	op.seg.res.opIn[k] = op.seg.clock()
	out := op.inner.Process(t)
	op.seg.res.opOut[k] = op.seg.clock()
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSegment builds a fresh region for w, drives it through a warm-up and a
// measured window, and checks that every tuple came out exactly once, in
// order, with the payload it went in with. The caller has set GOMAXPROCS.
func runSegment(w workload, o segOpts) (*segResult, error) {
	runtime.GC() // the previous segment's garbage is not this one's cost

	span := o.warm + o.window
	rate := float64(maxRate)
	if w.paced {
		rate = 2 * pacedRate
	}
	maxSamples := uint64(span.Seconds()*rate)/sampleEvery + 2
	res := &segResult{
		origin:   make([]int64, maxSamples),
		released: make([]int64, maxSamples),
		worker:   make([]uint8, maxSamples),
	}
	s := &segment{w: w, o: o, maxSamples: maxSamples, res: res, pool: payloadPool(o.seed)}
	s.want = s.pool
	if o.corruptSink {
		s.want = append([][]byte(nil), s.pool...)
		wrong := append([]byte(nil), s.pool[7]...)
		wrong[payloadSize-1] ^= 1
		s.want[7] = wrong
	}

	ops := make([]rt.Operator, w.workers)
	for i := range ops {
		ops[i] = rt.Identity()
		if w.hetero {
			sop := rt.NewServiceOperator(fastService)
			if i == 0 {
				sop.SetService(slowService)
			}
			s.ops = append(s.ops, sop)
			ops[i] = sop
		}
		if o.traced {
			ops[i] = stampedOp{inner: ops[i], seg: s}
		}
	}
	if o.traced {
		res.opIn = make([]int64, maxSamples)
		res.opOut = make([]int64, maxSamples)
	}
	bal, err := core.NewBalancer(core.Config{Connections: w.workers, DecayEnabled: true})
	if err != nil {
		return nil, err
	}
	cfg := rt.RegionConfig{
		Transport:      w.transport,
		Operators:      ops,
		Source:         s.source,
		Sink:           s.sink,
		Balancer:       bal,
		SampleInterval: 100 * time.Millisecond,
		BatchSize:      o.batch,
	}
	if o.traced || o.withMetrics {
		res.reg = metrics.New()
		cfg.Metrics = rt.NewRegionMetrics(res.reg, nil)
	}
	if o.traced {
		cfg.OnSample = func(_ time.Duration, _ []float64, weights []int) {
			res.weights = append(res.weights, weightSample{at: s.clock(), weights: append([]int(nil), weights...)})
		}
	}

	// Process CPU time and allocator counters, read outside everything timed.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()

	base := time.Now()
	s.clock = func() int64 { return int64(time.Since(base)) }
	if w.paced {
		s.pacer = &pacer{now: s.clock, sleep: time.Sleep}
	}
	region, err := rt.NewRegion(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: new region: %w", w.name, err)
	}
	rr, runErr := region.Run()

	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	res.mallocs = after.Mallocs - before.Mallocs
	res.bytes = after.TotalAlloc - before.TotalAlloc
	res.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)

	res.emitted = res.endSeq
	res.elapsed = rr.Elapsed
	for _, b := range rr.TotalBlocking {
		res.blocking += b
	}
	if s.pacer != nil {
		res.slept = time.Duration(s.pacer.slept)
		res.oversleep = s.pacer.oversleep
	}
	res.attempted = res.endSeq - res.startSeq

	ok := runErr == nil && rr.OrderPreserved && rr.Released == res.emitted &&
		s.count == res.emitted && s.next == res.emitted
	switch {
	case !ok:
		// A segment that errors, loses, repeats or reorders anything fails
		// all the tuples it was asked to carry.
		res.failed = res.attempted
		if res.failed == 0 {
			res.failed = 1
		}
	case s.bad > 0:
		res.failed = s.bad
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: region run: %w", w.name, runErr)
	}
	if res.failed > 0 {
		return res, fmt.Errorf("%s: %d of %d tuples not released exactly once, in order, intact (released %d, emitted %d, order %v, bad %d)",
			w.name, res.failed, res.attempted, rr.Released, res.emitted, rr.OrderPreserved, s.bad)
	}
	// Throughput is timed on the release side, between the release of the
	// window's first sampled tuple and of its last one.
	first, last := res.startSeq>>sampleShift, res.endSeq>>sampleShift-1
	if last <= first {
		return res, fmt.Errorf("%s: measured window held fewer than %d tuples", w.name, 2*sampleEvery)
	}
	// Set-up ends when the region releases its first tuple after the warm-up.
	// It is timed at the sink because releases come every millisecond or so on
	// every workload, while hetero_shift's splitter sits in a blocked send for
	// up to 0.1 s at a time and would notice the end of the warm-up that late.
	up := sort.Search(int(last), func(k int) bool { return res.released[k] >= res.warmEnd })
	res.setupS = float64(res.released[up]) / 1e9
	dt := res.released[last] - res.released[first]
	res.tuplesPerS = float64((last-first)*sampleEvery) / (float64(dt) / 1e9)
	res.latUs = make([]float64, 0, last-first+1)
	for k := first; k <= last; k++ {
		res.latUs = append(res.latUs, float64(res.released[k]-res.origin[k])/1e3)
	}
	return res, nil
}
