package runtime

// The in-flight bound (DESIGN §4b): each connection holds at most its weight
// share of the region's forward rate times inflightDelay in tuples its worker
// has not acked; past it the splitter waits for credit, and the wait is the
// connection's blocking.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/metrics"
	"streambalance/internal/transport"
)

// TestInflightBound runs the hetero_shift shape — four slept-service workers,
// worker 0 three times slower, a balancer, runs of 32 — on both transports.
// At every tick no connection's in-flight count exceeds the bound it ran
// under plus one run, the first tick included (every connection starts at
// the floor of two runs); the scrape-time gauges agree with the send loop; the
// ordered merge's latency stays near the bound's 10 ms instead of the
// hundreds of milliseconds byte-sized buffers held; and the slow
// connection's credit waits are part of its blocking.
func TestInflightBound(t *testing.T) {
	const (
		tuples = 120_000
		batch  = 32
	)
	for _, kind := range []TransportKind{TransportTCP, TransportInproc} {
		t.Run(string(kind), func(t *testing.T) {
			ops := []Operator{NewServiceOperator(120 * time.Microsecond)}
			for len(ops) < 4 {
				ops = append(ops, NewServiceOperator(40*time.Microsecond))
			}
			balancer, err := core.NewBalancer(core.Config{Connections: len(ops), DecayEnabled: true})
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			// admitted is written by the source and read by the sink: both
			// run in order behind the merge's release of each sequence
			// number, so the slot a sink reads was written before the tuple
			// left the splitter. The lock makes that visible to -race.
			var mu sync.Mutex
			admitted := make([]time.Time, tuples)
			var lat []time.Duration
			var region *Region
			var prevBound []int64
			ticks := 0
			region, err = NewRegion(RegionConfig{
				Transport: kind,
				Operators: ops,
				Source: func(seq uint64) ([]byte, bool) {
					if seq >= tuples {
						return nil, false
					}
					mu.Lock()
					admitted[seq] = time.Now()
					mu.Unlock()
					return []byte("payload"), true
				},
				Sink: func(tu transport.Tuple, _ int) {
					if tu.Seq >= tuples/2 && tu.Seq%16 == 0 {
						mu.Lock()
						lat = append(lat, time.Since(admitted[tu.Seq]))
						mu.Unlock()
					}
				},
				Balancer:  balancer,
				BatchSize: batch,
				Metrics:   NewRegionMetrics(reg, nil),
				// OnSample runs on the send loop after the tick has written
				// every pending output: what a connection holds is exactly
				// its written tuples less its acks, and its bound is the one
				// this tick set.
				OnSample: func(time.Duration, []float64, []int) {
					ticks++
					for j, c := range region.splitter.conns {
						inflight := c.sender.Sent() - int64(c.acks.Load())
						if inflight > prevBound[j]+batch {
							t.Errorf("tick %d: connection %d holds %d tuples, bound %d plus a run of %d", ticks, c.id, inflight, prevBound[j], batch)
						}
						l := fmt.Sprint(c.id)
						if got, _ := reg.Value("spe_splitter_conn_inflight_bound_tuples", "conn", l); got != float64(c.bound.Load()) {
							t.Errorf("tick %d: connection %d bound gauge %v, send loop's %d", ticks, c.id, got, c.bound.Load())
						}
						if got, _ := reg.Value("spe_splitter_conn_inflight_tuples", "conn", l); got < 0 || got > float64(inflight) {
							t.Errorf("tick %d: connection %d in-flight gauge %v, send loop's %d (acks only lower it)", ticks, c.id, got, inflight)
						}
					}
					prevBound = bounds(region.splitter)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			prevBound = bounds(region.splitter)
			if prevBound[0] != 2*batch {
				t.Fatalf("connection 0 starts at bound %d, want the floor %d", prevBound[0], 2*batch)
			}
			res, err := region.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Released != tuples || !res.OrderPreserved {
				t.Fatalf("released=%d order=%v, want %d true", res.Released, res.OrderPreserved, tuples)
			}
			if ticks == 0 {
				t.Fatal("no tick ran")
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if p50 := lat[len(lat)/2]; p50 > 50*time.Millisecond {
				t.Errorf("sink p50 latency over the second half %v, want under 50ms", p50)
			}
			slow := region.splitter.conns[0]
			_, blocking := region.splitter.ConnStats()
			waited := time.Duration(slow.waited.Load())
			if slow.waits.Load() == 0 || waited == 0 {
				t.Fatalf("the slow connection never waited for credit (blocking %v)", blocking)
			}
			if blocking[0] < waited {
				t.Fatalf("slow connection's blocking %v leaves out its %v of credit waits", blocking[0], waited)
			}
			if got, _ := reg.Value("spe_splitter_blocking_seconds_total", "conn", "0"); got < waited.Seconds() {
				t.Fatalf("exported blocking %vs leaves out the %v of credit waits", got, waited)
			}
			t.Logf("%d ticks; slow connection waited %v in %d waits, blocking %v; sent %v", ticks, waited, slow.waits.Load(), blocking, res.PerConnSent)
		})
	}
}

// bounds reads every live connection's in-flight bound.
func bounds(sp *Splitter) []int64 {
	b := make([]int64, len(sp.conns))
	for j, c := range sp.conns {
		b[j] = c.bound.Load()
	}
	return b
}

// TestShortTCPRegionsReleaseEverything runs many short TCP regions, each
// ending while its workers still ack: the splitter half-closes, reads the
// last credits to the end of stream and only then closes, so no close turns
// into a reset that discards a worker's unread input.
func TestShortTCPRegionsReleaseEverything(t *testing.T) {
	regions := 200
	if testing.Short() {
		regions = 20
	}
	for i := 0; i < regions; i++ {
		workers := 1 + i%3
		tuples := uint64(100 + 37*(i%9))
		ops := make([]Operator, workers)
		for j := range ops {
			ops[j] = Identity()
		}
		region, err := NewRegion(RegionConfig{
			Operators: ops,
			Source:    ConstantSource([]byte("short"), tuples),
			BatchSize: 1 + i%8,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := region.Run()
		if err != nil {
			t.Fatalf("region %d (%d workers, %d tuples): %v", i, workers, tuples, err)
		}
		if res.Released != tuples || !res.OrderPreserved {
			t.Fatalf("region %d (%d workers): released %d of %d, order %v", i, workers, res.Released, tuples, res.OrderPreserved)
		}
	}
}

// TestSlowWorkerDrainsPastStallBound ends a TCP region while its one worker
// still holds far more work than SendStall: two runs of 512 at 500 µs a tuple
// are about half a second. The worker acks every chunk it forwards, so the
// end-of-stream read goes on until its last credit; a read bounded from the
// half-close would close under the worker, whose next ack would then fail.
func TestSlowWorkerDrainsPastStallBound(t *testing.T) {
	const tuples = 3000
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{NewServiceOperator(500 * time.Microsecond)},
		Source:    ConstantSource([]byte("slow"), tuples),
		BatchSize: 512,
		Timeouts:  Timeouts{SendStall: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != tuples || !res.OrderPreserved {
		t.Fatalf("released %d of %d, order %v", res.Released, tuples, res.OrderPreserved)
	}
}

// TestCreditWaitOutlastsStallWhileAcking: a bound that shrinks under what a
// connection holds makes one credit wait last until the worker has worked
// off the difference. A worker that acks steadily all the while is slow, not
// stalled, so the wait outlasts SendStall and ends in credit, not failure.
func TestCreditWaitOutlastsStallWhileAcking(t *testing.T) {
	const (
		batch = 8
		held  = 64
		stall = 100 * time.Millisecond
	)
	tx, rx := transport.InprocPair(1024)
	rx.Ack(0) // a consumer that acks, so the edge is bounded
	sp, err := NewSplitter(SplitterConfig{
		Senders:   []transport.BatchSender{tx},
		BatchSize: batch,
		Timeouts:  Timeouts{SendStall: stall},
		Source:    func(uint64) ([]byte, bool) { return nil, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sp.conns[0]
	payload := []byte("x")
	for seq := uint64(0); seq < held; seq++ {
		c.out = append(c.out, transport.Tuple{Seq: seq, Payload: payload})
	}
	if err := sp.writeOut(false); err != nil {
		t.Fatal(err)
	}
	// The worker takes everything, then acks two tuples every 10 ms: the
	// held tuples reach the floor of two runs after about 240 ms.
	go func() {
		var received uint64
		dst := make([]transport.Tuple, 0, held)
		for received < held {
			var err error
			if dst, _, err = rx.ReceiveBatch(dst, held); err != nil {
				return
			}
			received += uint64(len(dst))
		}
		for acked := uint64(2); acked <= held; acked += 2 {
			time.Sleep(10 * time.Millisecond)
			rx.Ack(acked)
		}
	}()
	start := time.Now()
	got, err := sp.pickRun()
	if err != nil {
		t.Fatal(err)
	}
	if got != c || c.inflight() >= c.bound.Load() {
		t.Fatalf("pick %v with %d in flight, bound %d", got, c.inflight(), c.bound.Load())
	}
	if waited := time.Since(start); waited < 2*stall {
		t.Fatalf("the wait lasted %v: the bound did not hold the pick past SendStall", waited)
	}
	sp.closeSenders(false)
	rx.Close()
}

// TestRecoveryNeverWaitsOnCredit: a replay and the drain send past every
// bound. Both connections are far over theirs and nothing acks, so a replay
// that waited for credit would wait out the 30 s stall bound.
func TestRecoveryNeverWaitsOnCredit(t *testing.T) {
	const runs = 8
	edges := newTCPEdges(t, 2)
	sp, err := NewSplitter(SplitterConfig{
		Senders:        edgeSenders(edges),
		SampleInterval: time.Hour,
		Source:         func(uint64) ([]byte, bool) { return nil, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := newFakeMerger(sp)
	// Edge 0's reader reports nothing to the watermark, as a dead worker's
	// would not; edge 1's does.
	edges[0].read(nil)
	edges[1].read(seen)
	for _, c := range sp.conns {
		c.acks = transport.NewAcks()
		c.acks.Store(0) // a worker that acks, but nothing it was sent
	}
	payload := []byte("replay") // every bound is its floor of two runs
	for r := 0; r < runs; r++ {
		stageRound(t, sp, uint64(r), 1, payload)
	}
	survivor := sp.conns[1]
	done := make(chan error, 1)
	go func() {
		if err := sp.handleConnFailure(sp.conns[0], errors.New("killed")); err != nil {
			done <- err
			return
		}
		done <- sp.drain(runs)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay or drain waited on credit")
	}
	if inflight, bound := survivor.inflight(), survivor.bound.Load(); bound == 0 || inflight <= bound {
		t.Fatalf("survivor holds %d tuples under bound %d: the replay did not cross it", inflight, bound)
	}
	sp.closeSenders(false)
	exactlyOnce(t, runs, edges[1].wait(t))
}

// TestCreditWaitAllocatesNothing drives rounds through a bound of two runs
// against a consumer that acks all but the latest run it has received, so
// most picks find the bound reached and wait; the wait reuses the splitter's
// timer and the edge's doorbell.
func TestCreditWaitAllocatesNothing(t *testing.T) {
	const batch = 8
	tx, rx := transport.InprocPair(1024)
	rx.Ack(0) // a consumer that acks, so the edge is bounded
	sp, err := NewSplitter(SplitterConfig{
		Senders:   []transport.BatchSender{tx},
		BatchSize: batch,
		Source:    func(uint64) ([]byte, bool) { return nil, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	// No tick runs: the bound stays at its floor of two runs.
	go func() {
		var received uint64
		dst := make([]transport.Tuple, 0, batch)
		for {
			var err error
			if dst, _, err = rx.ReceiveBatch(dst, batch); err != nil {
				return
			}
			if received += uint64(len(dst)); received > batch {
				rx.Ack(received - batch)
			}
		}
	}()
	payload := []byte("x")
	var seq uint64
	round := func() {
		c, err := sp.pickRun()
		if err != nil || c == nil {
			t.Fatalf("pick: %v", err)
		}
		for i := 0; i < batch; i++ {
			c.out = append(c.out, transport.Tuple{Seq: seq, Payload: payload})
			seq++
		}
		if err := sp.writeOut(true); err != nil {
			t.Fatal(err)
		}
	}
	round() // grow the pending queue once
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Fatalf("a bound-binding round allocates %v times", allocs)
	}
	c := sp.conns[0]
	if c.waits.Load() == 0 {
		t.Fatal("the bound never bound")
	}
	if max := c.bound.Load() + batch; c.inflight() > max {
		t.Fatalf("%d tuples in flight, bound %d plus a run", c.inflight(), c.bound.Load())
	}
	sp.closeSenders(false)
	rx.Close()
}
