package runtime

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"streambalance/internal/chaos"
	"streambalance/internal/core"
	"streambalance/internal/transport"
)

// dialWorkerConn opens a raw worker connection to the merger with the given
// id and returns it.
func dialWorkerConn(t *testing.T, addr string, id uint32) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var idBuf [4]byte
	binary.LittleEndian.PutUint32(idBuf[:], id)
	if _, err := conn.Write(idBuf[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

func writeTuples(t *testing.T, conn net.Conn, seqs ...uint64) {
	t.Helper()
	var frame []byte
	for _, seq := range seqs {
		var err error
		frame, err = transport.AppendFrame(frame[:0], transport.Tuple{Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMergerDedupesReplayedSequences(t *testing.T) {
	var mu sync.Mutex
	var seqs []uint64
	m, err := NewMerger(2, 8, func(tp transport.Tuple, conn int) {
		mu.Lock()
		seqs = append(seqs, tp.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	// Worker 0 delivers 0,2,4; worker 1 delivers 1,2,3,5 — seq 2 arrives
	// twice, as it would when a dead worker's tuple is replayed to a
	// survivor that races the original delivery.
	c0 := dialWorkerConn(t, m.Addr(), 0)
	c1 := dialWorkerConn(t, m.Addr(), 1)
	writeTuples(t, c0, 0, 2, 4)
	writeTuples(t, c1, 1, 2, 3, 5)
	c0.Close()
	c1.Close()
	if err := m.Wait(); err != nil {
		t.Fatalf("merger failed on replayed duplicates: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 6 {
		t.Fatalf("released %d tuples, want 6 (exactly once): %v", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("release %d got seq %d: %v", i, s, seqs)
		}
	}
	if d := m.Deduped(); d != 1 {
		t.Fatalf("deduped = %d, want 1", d)
	}
}

func TestMergerMissingSequenceAtEOFWithQueuedLater(t *testing.T) {
	// Streams end while the merge still owes seq 0 but holds later
	// sequence numbers: the merger must detect and report, not hang.
	m, err := NewMerger(2, 8, func(transport.Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	c0 := dialWorkerConn(t, m.Addr(), 0)
	c1 := dialWorkerConn(t, m.Addr(), 1)
	writeTuples(t, c0, 2, 3)
	writeTuples(t, c1, 1)
	c0.Close()
	c1.Close()
	err = m.Wait()
	if err == nil {
		t.Fatal("merger accepted streams missing sequence 0")
	}
}

func TestMergerRejectsDuplicateLiveWorker(t *testing.T) {
	released := make(chan uint64, 8)
	m, err := NewMerger(1, 8, func(tp transport.Tuple, int2 int) {
		released <- tp.Seq
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	c0 := dialWorkerConn(t, m.Addr(), 0)
	defer c0.Close()
	// Prove c0 is attached and live before introducing the duplicate, so
	// the merger cannot confuse which connection came first.
	writeTuples(t, c0, 0)
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("merger never released seq 0")
	}
	// A second connection claiming the same live worker id must be
	// rejected (closed) without killing the merge.
	dup := dialWorkerConn(t, m.Addr(), 0)
	dup.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, rerr := dup.Read(make([]byte, 1))
	if rerr == nil {
		t.Fatal("duplicate live-worker connection was not closed")
	}
	if nerr, ok := rerr.(net.Error); ok && nerr.Timeout() {
		t.Fatal("duplicate live-worker connection stayed open (read timed out)")
	}
	dup.Close()
	// The original stream still works end to end.
	writeTuples(t, c0, 1)
	c0.Close()
	if err := m.Wait(); err != nil {
		t.Fatalf("merge failed after duplicate rejection: %v", err)
	}
	if m.DupRejects() != 1 {
		t.Fatalf("DupRejects = %d, want 1", m.DupRejects())
	}
}

func TestMergerAllowsWorkerRejoin(t *testing.T) {
	var mu sync.Mutex
	var got int
	m, err := NewMerger(1, 8, func(transport.Tuple, int) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	// A control channel keeps the merger waiting across the death — in
	// legacy mode (no control channel) the final stream ending ends the
	// merge, so rejoin is a recovery-mode capability.
	ctrl, err := dialControl(m.Addr(), Timeouts{}.norm())
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	// Incarnation one dies mid-stream (abrupt close after seq 0)...
	c0 := dialWorkerConn(t, m.Addr(), 0)
	writeTuples(t, c0, 0)
	time.Sleep(20 * time.Millisecond)
	c0.Close()
	// ...and incarnation two rejoins with the rest of the stream. The
	// merger may not have noticed the death yet and reject the first
	// attempts as duplicates — exactly what a restarting worker sees — so
	// retry like one would: probe with a short read (the merger never
	// writes to worker connections, so a prompt close means rejection, a
	// timeout means attached).
	deadline := time.Now().Add(5 * time.Second)
	var c1 net.Conn
	for {
		if time.Now().After(deadline) {
			t.Fatal("merger kept rejecting the rejoining worker")
		}
		c1 = dialWorkerConn(t, m.Addr(), 0)
		c1.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, rerr := c1.Read(make([]byte, 1))
		if nerr, ok := rerr.(net.Error); ok && nerr.Timeout() {
			c1.SetReadDeadline(time.Time{})
			break // still open after the probe: attached
		}
		c1.Close()
		time.Sleep(5 * time.Millisecond)
	}
	writeTuples(t, c1, 1, 2)
	c1.Close()
	if err := ctrl.SendFin(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Fatalf("merge failed across worker rejoin: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got != 3 {
		t.Fatalf("released %d tuples across rejoin, want 3", got)
	}
}

func TestSplitterReplaysOnWorkerFailure(t *testing.T) {
	const tuples = 8000
	var mu sync.Mutex
	var seqs []uint64
	sinkMerger, err := NewMerger(2, 64, func(tp transport.Tuple, conn int) {
		mu.Lock()
		seqs = append(seqs, tp.Seq)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*Worker, 2)
	proxies := make([]*chaos.Proxy, 2)
	for i := range workers {
		w, err := NewWorker(i, Identity(), sinkMerger.Addr())
		if err != nil {
			t.Fatal(err)
		}
		w.SetResilient(true)
		workers[i] = w
		p, err := chaos.NewProxy(w.Addr())
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		t.Cleanup(func() { p.Close(); w.Close() })
	}
	sinkMerger.SetWatermarkInterval(5 * time.Millisecond)
	sinkMerger.Start()
	for _, w := range workers {
		w.Start()
	}

	var downs, replays int
	var evMu sync.Mutex
	killed := make(chan struct{})
	sp, err := NewSplitter(SplitterConfig{
		WorkerAddrs: []string{proxies[0].Addr(), proxies[1].Addr()},
		Source: func(seq uint64) ([]byte, bool) {
			if seq == tuples/2 {
				// Kill worker 0's link mid-stream, exactly once.
				select {
				case <-killed:
				default:
					proxies[0].SetReject(true)
					proxies[0].KillActive()
					close(killed)
				}
			}
			if seq >= tuples {
				return nil, false
			}
			return []byte("payload"), true
		},
		SampleInterval: 20 * time.Millisecond,
		ControlAddr:    sinkMerger.Addr(),
		Recovery:       RecoveryConfig{DisableRedial: true, StallWindow: -1},
		OnConnEvent: func(ev ConnEvent) {
			evMu.Lock()
			switch ev.Kind {
			case "down":
				downs++
			case "replay":
				replays++
			}
			evMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sp.Start()
	if err := sp.Wait(); err != nil {
		t.Fatalf("splitter did not recover from worker failure: %v", err)
	}
	if err := sinkMerger.Wait(); err != nil {
		t.Fatalf("merger failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != tuples {
		t.Fatalf("released %d tuples, want %d", len(seqs), tuples)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("release %d got seq %d", i, s)
		}
	}
	evMu.Lock()
	defer evMu.Unlock()
	if downs == 0 || replays == 0 {
		t.Fatalf("expected down+replay events, got downs=%d replays=%d", downs, replays)
	}
	sent, _ := sp.ConnStats()
	var total int64
	for _, s := range sent {
		total += s
	}
	if total < tuples {
		t.Fatalf("sent %d < released %d: replay accounting broken", total, tuples)
	}
}

func TestRegionRecoversFromMidRunWorkerKill(t *testing.T) {
	const tuples = 20000
	proxies, wrap := chaosProxies(t, 4)
	var mu sync.Mutex
	var seqs []uint64
	balancer, err := core.NewBalancer(core.Config{Connections: 4, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{Identity(), Identity(), Identity(), Identity()},
		Source: func(seq uint64) ([]byte, bool) {
			if seq == tuples/3 {
				select {
				case <-killed:
				default:
					// Worker 2 dies and never comes back.
					proxies[2].SetReject(true)
					proxies[2].KillActive()
					close(killed)
				}
			}
			if seq >= tuples {
				return nil, false
			}
			return []byte("x"), true
		},
		Balancer:       balancer,
		SampleInterval: 20 * time.Millisecond,
		Sink: func(tp transport.Tuple, conn int) {
			mu.Lock()
			seqs = append(seqs, tp.Seq)
			mu.Unlock()
		},
		Recovery: RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 5 * time.Millisecond,
			// The kill is permanent, so redial would only flap against
			// the rejecting proxy.
			DisableRedial: true,
		},
		WrapWorkerAddr: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatalf("region did not survive a worker kill: %v", err)
	}
	if res.Released != tuples {
		t.Fatalf("released %d tuples, want %d", res.Released, tuples)
	}
	if !res.OrderPreserved {
		t.Fatal("sequential semantics violated across worker kill")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != tuples {
		t.Fatalf("sink saw %d tuples, want %d (exactly once)", len(seqs), tuples)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("sink position %d got seq %d", i, s)
		}
	}
	// The dead worker's weight was folded into the survivors.
	if balancer.Connections() != 3 {
		t.Fatalf("balancer has %d connections after kill, want 3", balancer.Connections())
	}
}

func TestRegionWorkerRejoinsAfterConnectionKill(t *testing.T) {
	const tuples = 30000
	proxies, wrap := chaosProxies(t, 3)
	var mu sync.Mutex
	var seqs []uint64
	var evMu sync.Mutex
	events := map[string]int{}
	killed := make(chan struct{})
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{Identity(), Identity(), Identity()},
		Source: func(seq uint64) ([]byte, bool) {
			if seq == tuples/3 {
				select {
				case <-killed:
				default:
					// Sever worker 1's links; the proxy keeps accepting,
					// so the splitter's redial brings it back.
					proxies[1].KillActive()
					close(killed)
				}
			}
			if seq >= tuples {
				return nil, false
			}
			return []byte("x"), true
		},
		SampleInterval: 20 * time.Millisecond,
		Sink: func(tp transport.Tuple, conn int) {
			mu.Lock()
			seqs = append(seqs, tp.Seq)
			mu.Unlock()
		},
		OnConnEvent: func(ev ConnEvent) {
			evMu.Lock()
			events[ev.Kind]++
			evMu.Unlock()
		},
		Recovery: RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 5 * time.Millisecond,
			Redial: &transport.RedialPolicy{
				Base: 5 * time.Millisecond,
				Max:  50 * time.Millisecond,
			},
		},
		WrapWorkerAddr: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatalf("region did not survive connection kill + rejoin: %v", err)
	}
	if res.Released != tuples || !res.OrderPreserved {
		t.Fatalf("released=%d order=%v, want %d true", res.Released, res.OrderPreserved, tuples)
	}
	mu.Lock()
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("sink position %d got seq %d", i, s)
		}
	}
	mu.Unlock()
	evMu.Lock()
	defer evMu.Unlock()
	if events["down"] == 0 {
		t.Fatal("no down event observed")
	}
	if events["rejoin"] == 0 {
		t.Fatal("worker never rejoined despite redial policy")
	}
}

func TestRegionAllWorkersDeadFailsFast(t *testing.T) {
	const tuples = 1 << 40 // effectively unbounded; failure must end the run
	proxies, wrap := chaosProxies(t, 3)
	killed := make(chan struct{})
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{Identity(), Identity(), Identity()},
		Source: func(seq uint64) ([]byte, bool) {
			if seq == 2000 {
				select {
				case <-killed:
				default:
					for _, p := range proxies {
						p.SetReject(true)
						p.KillActive()
					}
					close(killed)
				}
			}
			if seq >= tuples {
				return nil, false
			}
			return []byte("x"), true
		},
		SampleInterval: 20 * time.Millisecond,
		Recovery: RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 5 * time.Millisecond,
			DisableRedial:     true,
		},
		WrapWorkerAddr: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		_, err := region.Run()
		ch <- outcome{err: err}
	}()
	select {
	case out := <-ch:
		if out.err == nil {
			t.Fatal("region reported success with every worker dead")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("region deadlocked instead of failing fast with all workers dead")
	}
}

func TestRegionCloseReleasesNeverRunResources(t *testing.T) {
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{Identity(), Identity()},
		Source:    ConstantSource(nil, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	region.Close()
	// Closing must close the splitter's dialed senders too, so the
	// workers (who accepted those connections) unblock and exit.
	done := make(chan struct{})
	go func() {
		for _, w := range region.workers {
			w.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("workers still blocked after Region.Close: splitter senders leaked")
	}
}

func TestSplitterRetentionBoundsMemory(t *testing.T) {
	// With a tiny RetainCap the splitter must throttle on the watermark
	// rather than grow without bound, and still complete. A RetainCap below
	// BatchSize fills the replay buffer inside a round, whose tuples the
	// watermark waits for: the retention wait must write them first. One
	// in three tuples of the keyed case is unkeyed, so its rounds hold a run
	// and keyed tuples at once.
	const tuples = 4000
	for _, tc := range []struct {
		name                      string
		workers, retain, batchLen int
		keyed                     bool
	}{
		{"retain=64/batch=1", 1, 64, 1, false},
		{"retain=16/batch=32", 2, 16, 32, false},
		{"retain=31/batch=32", 2, 31, 32, false},
		{"retain=16/batch=32/keyed", 2, 16, 32, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			count := 0
			m, err := NewMerger(tc.workers, 16, func(transport.Tuple, int) {
				mu.Lock()
				count++
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			m.SetWatermarkInterval(2 * time.Millisecond)
			m.Start()
			var addrs []string
			for i := 0; i < tc.workers; i++ {
				w, err := NewWorker(i, Identity(), m.Addr())
				if err != nil {
					t.Fatal(err)
				}
				w.SetResilient(true)
				defer w.Close()
				w.Start()
				addrs = append(addrs, w.Addr())
			}
			cfg := SplitterConfig{
				WorkerAddrs:    addrs,
				SampleInterval: 50 * time.Millisecond,
				ControlAddr:    m.Addr(),
				Recovery:       RecoveryConfig{RetainCap: tc.retain, DisableRedial: true, StallWindow: -1},
				BatchSize:      tc.batchLen,
			}
			if tc.keyed {
				cfg.KeyedSource = func(seq uint64) (uint64, []byte, bool) {
					key := uint64(0)
					if seq%3 != 0 {
						key = 1 + seq%7
					}
					return key, []byte("p"), seq < tuples
				}
			} else {
				cfg.Source = ConstantSource([]byte("p"), tuples)
			}
			sp, err := NewSplitter(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp.Start()
			done := make(chan error, 1)
			go func() { done <- sp.Wait() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("splitter failed under tight retention: %v", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("splitter hung at watermark %d of %d", sp.ctrl.Watermark(), tuples)
			}
			if err := m.Wait(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if count != tuples {
				t.Fatalf("released %d, want %d", count, tuples)
			}
		})
	}
}

func TestRedialerRejoinNoRegion(t *testing.T) {
	// Plain transport-level check that a redialer survives refused dials
	// until the listener comes back.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go func() {
		time.Sleep(50 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		conn, err := ln2.Accept()
		if err == nil {
			conn.Close()
		}
		ln2.Close()
	}()
	dial := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, time.Second) }
	rd := transport.NewRedialer(dial, transport.RedialPolicy{
		Base: 5 * time.Millisecond,
		Max:  20 * time.Millisecond,
	})
	conn, err := rd.Dial(nil)
	if err != nil {
		t.Fatalf("redial never succeeded: %v (attempts=%d)", err, rd.Attempts())
	}
	conn.Close()
	if rd.Attempts() < 2 {
		t.Fatalf("expected multiple attempts, got %d", rd.Attempts())
	}
}

func TestSplitterEventString(t *testing.T) {
	ev := ConnEvent{Kind: "down", Conn: 2, Err: fmt.Errorf("boom")}
	if ev.Kind != "down" || ev.Conn != 2 {
		t.Fatal("ConnEvent fields broken")
	}
}
