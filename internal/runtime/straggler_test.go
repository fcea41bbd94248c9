package runtime

import (
	"net"
	"sync"
	"testing"
	"time"

	"streambalance/internal/chaos"
	"streambalance/internal/metrics"
	"streambalance/internal/testutil"
	"streambalance/internal/transport"
)

// TestMergerShedsSilentDialer covers the silent-dialer regression: a client
// that connects but never identifies must be shed at the handshake deadline
// instead of pinning a handshake goroutine forever, and must not disturb the
// real streams.
func TestMergerShedsSilentDialer(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	m, err := NewMerger(1, 8, func(tp transport.Tuple, conn int) {
		mu.Lock()
		got = append(got, tp.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTimeouts(Timeouts{IO: 150 * time.Millisecond})
	m.Start()

	silent, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	// A real stream alongside the silent one: the merge must complete
	// normally.
	c0 := dialWorkerConn(t, m.Addr(), 0)
	writeTuples(t, c0, 0, 1, 2)

	// The merger must close the silent connection within the handshake
	// deadline; a blocking read observes that as EOF/reset well before our
	// generous local deadline.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, rerr := silent.Read(make([]byte, 1)); rerr == nil {
		t.Fatal("silent connection was handed data")
	} else if nerr, ok := rerr.(net.Error); ok && nerr.Timeout() {
		t.Fatal("silent dialer was not shed within the handshake deadline")
	}

	c0.Close()
	if err := m.Wait(); err != nil {
		t.Fatalf("merge failed after shedding silent dialer: %v", err)
	}
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("released %d tuples, want 3", n)
	}
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}

// TestMergerCloseReleasesPendingHandshake disables the handshake deadline so
// only teardown can shed a pending connection — the original leak shape: a
// handshake goroutine parked in a read with nobody left to unblock it.
func TestMergerCloseReleasesPendingHandshake(t *testing.T) {
	m, err := NewMerger(1, 8, func(transport.Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTimeouts(Timeouts{IO: -1})
	m.Start()

	silent, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Let the handshake goroutine park in its identification read.
	time.Sleep(50 * time.Millisecond)

	m.Close()
	m.Wait() // must return promptly; the error (closed) is expected
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}

// stragglerTopology wires N resilient workers whose merger connections pass
// through per-worker chaos proxies, so a proxy stall models a worker that
// accepts input but never delivers output — the straggler the splitter's
// merge-stall check must catch. Splitter→worker links and the control
// channel stay direct.
type stragglerTopology struct {
	m       *Merger
	proxies []*chaos.Proxy
	workers []*Worker
	addrs   []string
}

func newStragglerTopology(t *testing.T, n int, m *Merger, workerTO Timeouts) *stragglerTopology {
	t.Helper()
	top := &stragglerTopology{m: m}
	for i := 0; i < n; i++ {
		p, err := chaos.NewProxy(m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		top.proxies = append(top.proxies, p)
		w, err := NewWorker(i, Identity(), p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		w.SetResilient(true)
		w.SetTimeouts(workerTO)
		w.Start()
		top.workers = append(top.workers, w)
		top.addrs = append(top.addrs, w.Addr())
	}
	return top
}

// teardown closes proxies first — severing stalled links so parked workers
// unblock — then the workers.
func (top *stragglerTopology) teardown() {
	for _, p := range top.proxies {
		p.Close()
	}
	for _, w := range top.workers {
		w.Close()
	}
	for _, w := range top.workers {
		w.Wait()
	}
}

// pacedSource emits payload for n tuples on an absolute schedule of roughly
// rate tuples per second: a call behind schedule returns immediately (the
// splitter catches up in a burst), a call ahead of it sleeps. Pacing keeps
// the pipeline — not the merger — the throughput bottleneck, so rate
// comparisons across fault phases measure survivor capacity rather than how
// fast the sharded merge loop can drain a backlog burst.
func pacedSource(payload []byte, n uint64, rate float64) Source {
	start := time.Now()
	return func(seq uint64) ([]byte, bool) {
		if seq >= n {
			return nil, false
		}
		due := start.Add(time.Duration(float64(seq) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		return payload, true
	}
}

// TestStallQuarantineRecovery is the straggler demo: 8 workers, one enters
// Stall mode mid-run (accepts tuples, never delivers results). The merge
// stalls, the splitter's stall check sees the watermark stuck for the stall
// window with the victim carrying the head-of-line tuple, quarantines it and
// replays its tuples, and the stream completes exactly once in order with
// throughput recovering on the survivors.
func TestStallQuarantineRecovery(t *testing.T) {
	const (
		workers = 8
		tuples  = 24000
		victim  = 3
		window  = 150 * time.Millisecond
	)

	reg := metrics.New()
	rm := NewRegionMetrics(reg, metrics.NewTrace(4096))

	var stallOnce sync.Once
	var stallMu sync.Mutex
	var stallAt time.Time

	var relMu sync.Mutex
	var relSeqs []uint64
	var relTimes []time.Time
	stallProxy := make(chan *chaos.Proxy, 1)
	m, err := NewMerger(workers, 256, func(tp transport.Tuple, conn int) {
		relMu.Lock()
		relSeqs = append(relSeqs, tp.Seq)
		relTimes = append(relTimes, time.Now())
		n := len(relSeqs)
		relMu.Unlock()
		// Trigger the stall off the release count, not the source sequence:
		// the splitter races far ahead of releases, and the throughput
		// comparison needs a measured pre-fault phase.
		if n == tuples/3 {
			stallOnce.Do(func() {
				p := <-stallProxy
				stallMu.Lock()
				stallAt = time.Now()
				stallMu.Unlock()
				p.SetStall(true)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWatermarkInterval(2 * time.Millisecond)
	m.SetTimeouts(Timeouts{IO: 2 * time.Second})
	m.SetMetrics(rm)
	m.Start()

	// Workers park (rather than error) when their merger path stalls, so the
	// stall check — not a worker-side send timeout — is the detector under
	// test.
	top := newStragglerTopology(t, workers, m, Timeouts{SendStall: 10 * time.Second})
	defer top.teardown()
	stallProxy <- top.proxies[victim]

	type connEv struct {
		kind string
		conn int
		n    int
		at   time.Time
	}
	var evMu sync.Mutex
	var evs []connEv

	payload := []byte("straggler-demo!!")
	sp, err := NewSplitter(SplitterConfig{
		WorkerAddrs: top.addrs,
		// Paced: with lock-free sharded ingest the merger drains the
		// pre-fault phase at burst speed while the post-replay phase is
		// paced by replay round-trips, so an unpaced source would compare
		// merge-drain speed against replay latency instead of survivor
		// throughput against pre-fault throughput.
		Source:         pacedSource(payload, tuples, 250_000),
		SampleInterval: 20 * time.Millisecond,
		ControlAddr:    m.Addr(),
		// No redial: a quarantined worker stays gone, keeping the
		// post-fault assertions deterministic (7 survivors).
		Recovery: RecoveryConfig{StallWindow: window, DisableRedial: true},
		Metrics:  rm,
		Timeouts: Timeouts{SendStall: 10 * time.Second, IO: 2 * time.Second},
		OnConnEvent: func(ev ConnEvent) {
			evMu.Lock()
			evs = append(evs, connEv{ev.Kind, ev.Conn, ev.Tuples, time.Now()})
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp.Start()
	if err := sp.Wait(); err != nil {
		t.Fatalf("splitter: %v", err)
	}
	for _, w := range top.workers {
		w.Close()
	}
	if err := m.Wait(); err != nil {
		t.Fatalf("merger: %v", err)
	}

	// Exactly-once, in-order release of the full stream.
	relMu.Lock()
	seqs := relSeqs
	times := relTimes
	relMu.Unlock()
	stallMu.Lock()
	sAt := stallAt
	stallMu.Unlock()
	if sAt.IsZero() {
		t.Fatal("stall was never injected")
	}
	if len(seqs) != tuples {
		t.Fatalf("released %d tuples, want %d", len(seqs), tuples)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("release %d had seq %d (order broken)", i, s)
		}
	}

	// The stall check must have quarantined the victim — and quickly.
	evMu.Lock()
	events := evs
	evMu.Unlock()
	var quarAt, replayAt time.Time
	var replayed int
	for _, ev := range events {
		switch ev.kind {
		case "quarantine":
			if ev.conn != victim {
				t.Fatalf("quarantined worker %d, want %d", ev.conn, victim)
			}
			if quarAt.IsZero() {
				quarAt = ev.at
			}
		case "replay":
			if ev.conn == victim && replayAt.IsZero() {
				replayAt = ev.at
				replayed = ev.n
			}
		case "down":
			// The quarantine ejection rides the ordinary membership-edit
			// path, so a "down" for the victim after its quarantine is
			// expected; one before it means a send-stall timeout raced the
			// stall check, which this test's 10s send bounds should preclude.
			if quarAt.IsZero() {
				t.Fatalf("down event for worker %d before any quarantine (the stall check was not the detector)", ev.conn)
			}
		}
	}
	if quarAt.IsZero() {
		t.Fatalf("no quarantine event; events: %+v", events)
	}
	if replayAt.IsZero() {
		t.Fatalf("victim was never replayed; events: %+v", events)
	}
	if replayed == 0 {
		t.Error("replay event carried zero tuples")
	}
	if lat := quarAt.Sub(sAt); lat > 3*time.Second {
		t.Errorf("stall-to-quarantine latency %v, want well under 3s", lat)
	} else {
		t.Logf("stall detected and quarantined in %v (window %v)", lat, window)
	}

	// Metrics: the quarantine counter and the stall-episode histogram both
	// observed the incident.
	if got := mustSum(t, reg, "spe_quarantine_events_total"); got < 1 {
		t.Errorf("spe_quarantine_events_total = %v, want >= 1", got)
	}
	if rm.stallSeconds.Count() < 1 {
		t.Error("spe_merger_stall_seconds recorded no stall episodes")
	}

	// Throughput recovers on the survivors: the post-recovery release rate
	// must be at least 80% of the pre-fault rate. The post window starts
	// after the replay completed; the backlog drained during the stall is
	// released in a burst, so this is a conservative bound.
	pre, post := 0, 0
	for _, at := range times {
		if at.Before(sAt) {
			pre++
		}
		if at.After(replayAt) {
			post++
		}
	}
	start, end := times[0], times[len(times)-1]
	if pre >= 100 && post >= 100 && sAt.Sub(start) > 0 && end.Sub(replayAt) > 0 {
		preRate := float64(pre) / sAt.Sub(start).Seconds()
		postRate := float64(post) / end.Sub(replayAt).Seconds()
		t.Logf("pre-fault %.0f tuples/s, post-recovery %.0f tuples/s", preRate, postRate)
		if postRate < 0.8*preRate {
			t.Errorf("post-recovery rate %.0f/s fell below 80%% of pre-fault rate %.0f/s", postRate, preRate)
		}
	} else {
		t.Logf("skipping throughput comparison: pre=%d post=%d releases", pre, post)
	}

	top.teardown()
	testutil.ExpectNoModuleGoroutines(t, 3*time.Second)
}

// TestQuarantineReadmitAfterHeal heals the straggler right as it is
// quarantined: the redialer must re-probe it, re-admit it (a "readmit" trace
// event), and the stream must still complete exactly once.
func TestQuarantineReadmitAfterHeal(t *testing.T) {
	const (
		workers = 4
		tuples  = 12000
		victim  = 1
		window  = 120 * time.Millisecond
	)

	reg := metrics.New()
	tr := metrics.NewTrace(4096)
	rm := NewRegionMetrics(reg, tr)

	var relMu sync.Mutex
	var released int
	ordered := true
	var next uint64
	m, err := NewMerger(workers, 256, func(tp transport.Tuple, conn int) {
		relMu.Lock()
		if tp.Seq != next {
			ordered = false
		}
		next = tp.Seq + 1
		released++
		relMu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWatermarkInterval(2 * time.Millisecond)
	m.SetTimeouts(Timeouts{IO: 2 * time.Second})
	m.SetMetrics(rm)
	m.Start()

	top := newStragglerTopology(t, workers, m, Timeouts{SendStall: 10 * time.Second})
	defer top.teardown()

	var stallOnce sync.Once
	quarantined := make(chan struct{})
	rejoined := make(chan struct{})
	var evOnce [2]sync.Once

	sp, err := NewSplitter(SplitterConfig{
		WorkerAddrs: top.addrs,
		// Throttled source: the send phase must outlive the whole
		// quarantine→heal→redial→rejoin cycle, or the stream drains on the
		// survivors before the victim can come back.
		Source: func(seq uint64) ([]byte, bool) {
			if seq == tuples/6 {
				stallOnce.Do(func() { top.proxies[victim].SetStall(true) })
			}
			if seq >= tuples {
				return nil, false
			}
			if seq%20 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			return []byte("heal-me"), true
		},
		SampleInterval: 20 * time.Millisecond,
		ControlAddr:    m.Addr(),
		Recovery: RecoveryConfig{
			StallWindow: window,
			Redial:      &transport.RedialPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.2},
		},
		Metrics:  rm,
		Timeouts: Timeouts{SendStall: 10 * time.Second, IO: 150 * time.Millisecond},
		OnConnEvent: func(ev ConnEvent) {
			switch {
			case ev.Kind == "quarantine" && ev.Conn == victim:
				evOnce[0].Do(func() {
					// Heal the worker the moment it is ejected; the redialer
					// should find it healthy and bring it back.
					top.proxies[victim].SetStall(false)
					close(quarantined)
				})
			case ev.Kind == "rejoin" && ev.Conn == victim:
				evOnce[1].Do(func() { close(rejoined) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp.Start()
	if err := sp.Wait(); err != nil {
		t.Fatalf("splitter: %v", err)
	}
	for _, w := range top.workers {
		w.Close()
	}
	if err := m.Wait(); err != nil {
		t.Fatalf("merger: %v", err)
	}

	select {
	case <-quarantined:
	default:
		t.Fatal("victim was never quarantined")
	}
	select {
	case <-rejoined:
	default:
		t.Fatal("healed victim was never re-admitted")
	}
	readmitTraced := false
	for _, ev := range tr.Events() {
		if ev.Kind == "readmit" && ev.Conn == victim {
			readmitTraced = true
		}
	}
	if !readmitTraced {
		t.Error("no readmit trace event for the healed victim")
	}

	relMu.Lock()
	defer relMu.Unlock()
	if released != tuples || !ordered {
		t.Fatalf("released %d of %d tuples, ordered=%v", released, tuples, ordered)
	}
}

// TestQuarantineCircuitBreakerEvicts cycles one worker through
// stall→quarantine→heal→rejoin→stall again with MaxReadmits 1: the second
// quarantine must trip the circuit breaker ("evicted"), after which the
// worker stays out and the survivors finish the stream.
func TestQuarantineCircuitBreakerEvicts(t *testing.T) {
	const (
		workers = 4
		tuples  = 60000
		victim  = 2
		window  = 120 * time.Millisecond
	)

	m, err := NewMerger(workers, 256, func(transport.Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWatermarkInterval(2 * time.Millisecond)
	m.SetTimeouts(Timeouts{IO: 2 * time.Second})
	m.Start()

	top := newStragglerTopology(t, workers, m, Timeouts{SendStall: 10 * time.Second})
	defer top.teardown()

	var stallOnce sync.Once
	evicted := make(chan struct{})
	var quarCount int
	var rejoinStalls int
	var evMu sync.Mutex

	sp, err := NewSplitter(SplitterConfig{
		WorkerAddrs: top.addrs,
		Source: func(seq uint64) ([]byte, bool) {
			if seq == tuples/6 {
				stallOnce.Do(func() { top.proxies[victim].SetStall(true) })
			}
			if seq >= tuples {
				return nil, false
			}
			return []byte("evict-me"), true
		},
		SampleInterval: 20 * time.Millisecond,
		ControlAddr:    m.Addr(),
		Recovery: RecoveryConfig{
			StallWindow: window,
			MaxReadmits: 1,
			Redial:      &transport.RedialPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.2},
		},
		Timeouts: Timeouts{SendStall: 10 * time.Second, IO: 300 * time.Millisecond},
		OnConnEvent: func(ev ConnEvent) {
			if ev.Conn != victim {
				return
			}
			evMu.Lock()
			defer evMu.Unlock()
			switch ev.Kind {
			case "quarantine":
				quarCount++
				// Heal so the redialer can bring it back for another round.
				top.proxies[victim].SetStall(false)
			case "rejoin":
				// Back in — make it straggle again.
				rejoinStalls++
				top.proxies[victim].SetStall(true)
			case "evicted":
				top.proxies[victim].SetStall(false)
				select {
				case <-evicted:
				default:
					close(evicted)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp.Start()
	if err := sp.Wait(); err != nil {
		t.Fatalf("splitter: %v", err)
	}
	for _, w := range top.workers {
		w.Close()
	}
	if err := m.Wait(); err != nil {
		t.Fatalf("merger: %v", err)
	}

	select {
	case <-evicted:
	default:
		evMu.Lock()
		qc, rs := quarCount, rejoinStalls
		evMu.Unlock()
		t.Fatalf("circuit breaker never tripped (quarantines=%d, rejoin-stalls=%d)", qc, rs)
	}
	evMu.Lock()
	defer evMu.Unlock()
	if quarCount < 2 {
		t.Errorf("evicted after %d quarantines, want >= 2", quarCount)
	}
}

// TestRegionTeardownLeaksNothing runs a recovery region to completion and
// asserts every module goroutine — readers, monitors, watermark writer —
// exited with it.
func TestRegionTeardownLeaksNothing(t *testing.T) {
	ops := []Operator{Identity(), Identity(), Identity(), Identity()}
	region, err := NewRegion(RegionConfig{
		Operators: ops,
		Source:    ConstantSource([]byte("leakcheck"), 5000),
		Recovery: RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != 5000 || !res.OrderPreserved {
		t.Fatalf("released %d, ordered=%v", res.Released, res.OrderPreserved)
	}
	testutil.ExpectNoModuleGoroutines(t, 3*time.Second)
}

// TestRegionCloseWithoutRunLeaksNothing tears down a region that never ran;
// construction-time goroutines (accept loops, handshakes, control reader)
// must all exit on Close.
func TestRegionCloseWithoutRunLeaksNothing(t *testing.T) {
	ops := []Operator{Identity(), Identity()}
	region, err := NewRegion(RegionConfig{
		Operators: ops,
		Source:    ConstantSource([]byte("x"), 10),
		Recovery: RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	region.Close()
	testutil.ExpectNoModuleGoroutines(t, 3*time.Second)
}
