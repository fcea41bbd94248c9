package runtime

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"streambalance/internal/metrics"
	"streambalance/internal/transport"
)

// primeSeq marks the tuples congest writes to make an edge block; readers
// drop them.
const primeSeq = 1 << 62

// tcpEdge is one loopback TCP edge: the splitter's sender and a reader that
// records what arrives, started by read.
type tcpEdge struct {
	sender *transport.Sender
	peer   net.Conn
	mu     sync.Mutex
	got    []transport.Tuple // Seq and Key only
	done   chan error
}

// newTCPEdges dials n loopback connections with the region's default socket
// buffers. Nothing reads them until read is called.
func newTCPEdges(t testing.TB, n int) []*tcpEdge {
	t.Helper()
	edges := make([]*tcpEdge, n)
	for j := range edges {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peer, err := ln.Accept()
		ln.Close()
		if err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).SetWriteBuffer(DefaultSocketBuffer)
		peer.(*net.TCPConn).SetReadBuffer(DefaultSocketBuffer)
		s, err := transport.NewSender(conn)
		if err != nil {
			t.Fatal(err)
		}
		edges[j] = &tcpEdge{sender: s, peer: peer, done: make(chan error, 1)}
		t.Cleanup(func() { s.Close(); peer.Close() })
	}
	return edges
}

func edgeSenders(edges []*tcpEdge) []transport.BatchSender {
	out := make([]transport.BatchSender, len(edges))
	for j, e := range edges {
		out[j] = e.sender
	}
	return out
}

// read decodes the edge until EOF, keeping every tuple but congest's and
// handing each batch's sequence numbers to seen (may be nil).
func (e *tcpEdge) read(seen func([]transport.Tuple)) {
	go func() {
		rx := transport.NewReceiver(e.peer)
		var batch []transport.Tuple
		for {
			var ref *transport.BlockRef
			var err error
			batch, ref, err = rx.ReceiveBatch(batch, 0)
			kept := batch[:0]
			for _, tu := range batch {
				if tu.Seq < primeSeq {
					kept = append(kept, transport.Tuple{Seq: tu.Seq, Key: tu.Key})
				}
			}
			ref.ReleaseN(len(batch))
			e.mu.Lock()
			e.got = append(e.got, kept...)
			e.mu.Unlock()
			if seen != nil && len(kept) > 0 {
				seen(kept)
			}
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				e.done <- err
				return
			}
		}
	}()
}

// wait returns what the edge received once its sender is closed.
func (e *tcpEdge) wait(t testing.TB) []transport.Tuple {
	t.Helper()
	if err := <-e.done; err != nil {
		t.Fatalf("edge reader: %v", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.got
}

// blockEdges starts every edge's reader, making the ones named in blocked
// block first: a large batch is written to each while nothing reads it, and
// its reader starts only once the sender has elected to block. No sleeps: the
// only wait is on the sender's own block counter.
func blockEdges(t *testing.T, edges []*tcpEdge, seen func([]transport.Tuple), blocked ...int) {
	t.Helper()
	prime := make([]transport.Tuple, 1<<12)
	payload := make([]byte, 1<<10)
	for i := range prime {
		prime[i] = transport.Tuple{Seq: primeSeq + uint64(i), Payload: payload}
	}
	started := make([]bool, len(edges))
	for _, j := range blocked {
		e := edges[j]
		errc := make(chan error, 1)
		go func() { errc <- e.sender.SendBatch(prime) }()
		for e.sender.BlockEvents() == 0 {
			runtime.Gosched()
		}
		e.read(seen)
		started[j] = true
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	for j, e := range edges {
		if !started[j] {
			e.read(seen)
		}
	}
}

// congest makes the edges named in blocked block inside a sample interval
// four times as long as the blocking, driving both ticks by hand, and checks
// that exactly those edges are congested after it.
func congest(t *testing.T, sp *Splitter, edges []*tcpEdge, seen func([]transport.Tuple), blocked ...int) {
	t.Helper()
	if err := sp.tick(time.Millisecond); err != nil { // primes the samplers
		t.Fatal(err)
	}
	blockEdges(t, edges, seen, blocked...)
	var parked time.Duration
	for _, e := range edges {
		parked += e.sender.TotalBlocking()
	}
	if err := sp.tick(time.Millisecond + 4*parked); err != nil {
		t.Fatal(err)
	}
	want := make([]bool, len(edges))
	for _, j := range blocked {
		want[j] = true
	}
	for j, c := range sp.conns {
		if c.congested != want[j] {
			t.Fatalf("connection %d congested=%v after the tick, want %v", j, c.congested, want[j])
		}
	}
}

// TestParkedIntervalHoldsNothing: an edge that blocked in an interval the
// send loop spent at least holdParkedShare parked is not congested, since the
// loop had no write time to save.
func TestParkedIntervalHoldsNothing(t *testing.T) {
	edges := newTCPEdges(t, 2)
	sp, err := NewSplitter(SplitterConfig{
		Senders:        edgeSenders(edges),
		SampleInterval: time.Hour,
		Source:         func(uint64) ([]byte, bool) { return nil, false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.tick(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	blockEdges(t, edges, nil, 0)
	parked := edges[0].sender.TotalBlocking()
	interval := time.Duration(float64(parked) / (holdParkedShare + 0.05))
	if err := sp.tick(time.Millisecond + interval); err != nil {
		t.Fatal(err)
	}
	if sp.conns[0].congested {
		t.Fatalf("connection 0 congested after an interval spent %.2f parked", float64(parked)/float64(interval))
	}
	sp.closeSenders(false)
}

// newFakeMerger gives sp a control link whose watermark follows what the
// edges deliver: the lowest sequence number not yet seen, pulsed on every
// advance. The returned func goes to the edge readers; the link's far end
// discards the splitter's fin.
func newFakeMerger(sp *Splitter) (seen func([]transport.Tuple)) {
	near, far := net.Pipe()
	go io.Copy(io.Discard, far)
	sp.ctrl = &controlLink{conn: near, wmSignal: make(chan struct{}, 1), dead: make(chan struct{})}
	var mu sync.Mutex
	got := map[uint64]bool{}
	var wm uint64
	return func(ts []transport.Tuple) {
		mu.Lock()
		defer mu.Unlock()
		for _, tu := range ts {
			got[tu.Seq] = true
		}
		for got[wm] {
			delete(got, wm)
			wm++
		}
		if wm > sp.ctrl.watermark.Load() {
			sp.ctrl.watermark.Store(wm)
			select {
			case sp.ctrl.wmSignal <- struct{}{}:
			default:
			}
		}
	}
}

// exactlyOnce fails unless the edges together received every sequence number
// below total exactly once.
func exactlyOnce(t *testing.T, total uint64, received ...[]transport.Tuple) {
	t.Helper()
	count := make([]int, total)
	for _, ts := range received {
		for _, tu := range ts {
			if tu.Seq >= total {
				t.Fatalf("received seq %d of a %d-tuple stream", tu.Seq, total)
			}
			count[tu.Seq]++
		}
	}
	for seq, n := range count {
		if n != 1 {
			t.Fatalf("seq %d reached the edges %d times, want exactly once", seq, n)
		}
	}
}

// stageRound admits a run of batch tuples through the replay buffer to one
// WRR pick's pending output and ends the round, as the send loop does,
// without the loop.
func stageRound(t *testing.T, sp *Splitter, first uint64, batch int, payload []byte) {
	t.Helper()
	c := sp.pickFor(0)
	for seq := first; seq < first+uint64(batch); seq++ {
		if err := sp.awaitRetention(); err != nil {
			t.Fatal(err)
		}
		tu := transport.Tuple{Seq: seq, Payload: payload}
		sp.retained = append(sp.retained, retainEntry{seq: seq, conn: c.id, payload: payload})
		c.out = append(c.out, tu)
		if c.congested {
			c.outBytes += transport.FrameLen(tu)
		}
	}
	if err := sp.writeOut(true); err != nil {
		t.Fatal(err)
	}
}

// TestSplitterCoalescesCongestedRuns pins the write gate over loopback TCP.
// After an interval in which connection 0 blocked and connection 1 did not,
// connection 0 writes at the first round end at which it holds at least a
// quarter of the socket buffer (so each write is the fewest whole runs that
// reach it), connection 1 still writes one run per flush, and the schedule
// still makes one pick per run.
func TestSplitterCoalescesCongestedRuns(t *testing.T) {
	const (
		batch = 32
		runs  = 120 // even weights: 60 a connection
	)
	payload := make([]byte, 64)
	runBytes := batch * transport.FrameLen(transport.Tuple{Payload: payload})
	for _, sockbuf := range []int{DefaultSocketBuffer, 2048} {
		t.Run(fmt.Sprintf("sockbuf=%d", sockbuf), func(t *testing.T) {
			edges := newTCPEdges(t, 2)
			reg := metrics.New()
			sp, err := NewSplitter(SplitterConfig{
				Senders:        edgeSenders(edges),
				BatchSize:      batch,
				SampleInterval: time.Hour, // only the ticks congest drives
				Source:         ConstantSource(payload, runs*batch),
				Metrics:        NewRegionMetrics(reg, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			sp.holdBytes = sockbuf / 4
			congest(t, sp, edges, nil, 0)
			if v, _ := reg.Value("spe_splitter_conn_coalescing", "conn", "0"); v != 1 {
				t.Fatalf("coalescing gauge of connection 0 is %v, want 1", v)
			}
			if v, _ := reg.Value("spe_splitter_conn_coalescing", "conn", "1"); v != 0 {
				t.Fatalf("coalescing gauge of connection 1 is %v, want 0", v)
			}
			primedFlushes, primedSent := edges[0].sender.Flushes(), edges[0].sender.Sent()
			sp.Start()
			if err := sp.Wait(); err != nil {
				t.Fatal(err)
			}
			perWrite := (sockbuf/4 + runBytes - 1) / runBytes // the fewest whole runs reaching the bound
			wantWrites := []int64{(runs/2 + int64(perWrite) - 1) / int64(perWrite), runs / 2}
			for j, e := range edges {
				got := e.wait(t)
				flushes, sent := e.sender.Flushes(), e.sender.Sent()
				if j == 0 {
					flushes, sent = flushes-primedFlushes, sent-primedSent
				}
				if sent != runs/2*batch || flushes != wantWrites[j] {
					t.Errorf("connection %d: %d tuples in %d writes, want %d in %d (runs of %d B, bound %d B)",
						j, sent, flushes, runs/2*batch, wantWrites[j], runBytes, sockbuf/4)
				}
				for i, tu := range got {
					if i%batch == 0 && tu.Seq%batch != 0 || i%batch != 0 && tu.Seq != got[i-1].Seq+1 {
						t.Fatalf("connection %d: tuple %d carried seq %d, not part of a run of %d", j, i, tu.Seq, batch)
					}
				}
			}
			if picks := mustSum(t, reg, "spe_schedule_picks_total"); picks != runs {
				t.Fatalf("%v schedule picks, want one per run (%d)", picks, runs)
			}
		})
	}
}

// TestHeldRunsUnderRecovery pins what held output must never wait behind, and
// what a retirement does with it, on loopback TCP with connection 0
// congested by hand-driven ticks (no sleeps).
func TestHeldRunsUnderRecovery(t *testing.T) {
	const batch = 8
	payload := make([]byte, 64)

	t.Run("retain-cap-below-bound", func(t *testing.T) {
		// The replay buffer fills long before connection 0's held runs reach
		// the write bound, and the watermark waits on those runs: the
		// retention wait must write them, or the region deadlocks.
		const total = 4096
		edges := newTCPEdges(t, 2)
		sp, err := NewSplitter(SplitterConfig{
			Senders:        edgeSenders(edges),
			BatchSize:      batch,
			Recovery:       RecoveryConfig{RetainCap: 64},
			SampleInterval: time.Hour,
			Source:         ConstantSource(payload, total),
		})
		if err != nil {
			t.Fatal(err)
		}
		if 64*transport.FrameLen(transport.Tuple{Payload: payload}) >= sp.holdBytes {
			t.Fatalf("RetainCap is not below the write bound of %d B", sp.holdBytes)
		}
		seen := newFakeMerger(sp)
		congest(t, sp, edges, seen, 0)
		primed := edges[0].sender.Flushes()
		done := make(chan error, 1)
		go func() { done <- sp.sendLoop() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("deadlocked at watermark %d of %d", sp.ctrl.Watermark(), total)
		}
		sp.closeSenders(false)
		exactlyOnce(t, total, edges[0].wait(t), edges[1].wait(t))
		if per := float64(total/2) / float64(edges[0].sender.Flushes()-primed); per <= batch {
			t.Fatalf("connection 0 wrote %.1f tuples a write: its runs were never held", per)
		}
	})

	t.Run("stall-check-spares-held-head", func(t *testing.T) {
		const w = 100 * time.Millisecond
		edges := newTCPEdges(t, 2)
		sp, err := NewSplitter(SplitterConfig{
			Senders:        edgeSenders(edges),
			BatchSize:      batch,
			Recovery:       RecoveryConfig{StallWindow: w},
			SampleInterval: time.Hour,
			Source:         func(uint64) ([]byte, bool) { return nil, false },
		})
		if err != nil {
			t.Fatal(err)
		}
		sp.ctrl = &controlLink{wmSignal: make(chan struct{}, 1), dead: make(chan struct{})}
		congest(t, sp, edges, nil, 0)
		if err := sp.wrr.SetWeights([]int{1, 0}); err != nil {
			t.Fatal(err)
		}
		stageRound(t, sp, 0, batch, payload)
		if len(sp.conns[0].out) != batch {
			t.Fatalf("connection 0 holds %d tuples, want the head-of-line run", len(sp.conns[0].out))
		}
		// The watermark has sat at 0 for two windows, behind a run that was
		// never written.
		t0 := time.Now()
		sp.stallSince = t0.Add(-2 * w)
		var quarantined []int
		check := func(now time.Time) {
			t.Helper()
			err := sp.checkStall(now, func(id int, _ bool) error {
				quarantined = append(quarantined, id)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		check(t0)
		if len(quarantined) != 0 || len(sp.conns[0].out) != 0 {
			t.Fatalf("check quarantined %v and left %d tuples held, want none of either", quarantined, len(sp.conns[0].out))
		}
		check(t0.Add(w - time.Nanosecond))
		if len(quarantined) != 0 {
			t.Fatalf("quarantined %v within a window of writing the head", quarantined)
		}
		check(t0.Add(w)) // written and still stuck: now it is the worker's
		if fmt.Sprint(quarantined) != "[0]" {
			t.Fatalf("quarantined %v a window after writing the head, want [0]", quarantined)
		}
		sp.closeSenders(false)
		if got := edges[0].wait(t); len(got) != batch {
			t.Fatalf("connection 0 received %d tuples, want the run of %d", len(got), batch)
		}
	})

	t.Run("retired-with-runs-held", func(t *testing.T) {
		// Connection 0 fails holding runs it never wrote. Its replay must put
		// each of them on a survivor's edge exactly once: not on the dead
		// edge, and not twice.
		const rounds = 9
		edges := newTCPEdges(t, 3)
		sp, err := NewSplitter(SplitterConfig{
			Senders:        edgeSenders(edges),
			BatchSize:      batch,
			SampleInterval: time.Hour,
			Source:         func(uint64) ([]byte, bool) { return nil, false },
		})
		if err != nil {
			t.Fatal(err)
		}
		sp.ctrl = &controlLink{wmSignal: make(chan struct{}, 1), dead: make(chan struct{})}
		congest(t, sp, edges, nil, 0)
		for r := 0; r < rounds; r++ {
			stageRound(t, sp, uint64(r*batch), batch, payload)
		}
		held := len(sp.conns[0].out)
		if held != rounds/3*batch {
			t.Fatalf("connection 0 holds %d tuples, want %d", held, rounds/3*batch)
		}
		replayed := 0
		sp.cfg.OnConnEvent = func(ev ConnEvent) {
			if ev.Kind == "replay" {
				replayed += ev.Tuples
			}
		}
		if err := sp.connFailed(0, false); err != nil {
			t.Fatal(err)
		}
		if replayed != held {
			t.Fatalf("replayed %d tuples, want the %d held", replayed, held)
		}
		sp.closeSenders(false)
		if got := edges[0].wait(t); len(got) != 0 {
			t.Fatalf("the retired connection received %d tuples", len(got))
		}
		exactlyOnce(t, rounds*batch, edges[1].wait(t), edges[2].wait(t))
	})

	t.Run("keyed-after-held", func(t *testing.T) {
		// Keyed tuples share their connection's pending output with its runs,
		// so every connection's stream arrives in ascending sequence order,
		// whether connection 0 holds its output or not.
		const total = 4000
		for _, congested := range []bool{true, false} {
			t.Run(fmt.Sprintf("congested=%v", congested), func(t *testing.T) {
				edges := newTCPEdges(t, 2)
				sp, err := NewSplitter(SplitterConfig{
					Senders:        edgeSenders(edges),
					BatchSize:      batch,
					SampleInterval: time.Hour,
					KeyedSource: func(seq uint64) (uint64, []byte, bool) {
						key := uint64(0)
						if seq%5 == 4 {
							key = 1 + seq*2654435761%97
						}
						return key, payload, seq < total
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if congested {
					congest(t, sp, edges, nil, 0)
				} else {
					blockEdges(t, edges, nil)
				}
				sp.Start()
				if err := sp.Wait(); err != nil {
					t.Fatal(err)
				}
				got := [][]transport.Tuple{edges[0].wait(t), edges[1].wait(t)}
				exactlyOnce(t, total, got...)
				for j, ts := range got {
					for i := 1; i < len(ts); i++ {
						if ts[i].Seq <= ts[i-1].Seq {
							t.Fatalf("connection %d received seq %d after %d", j, ts[i].Seq, ts[i-1].Seq)
						}
					}
				}
				keyed := 0
				for _, tu := range got[0] {
					if tu.Key != 0 {
						keyed++
					}
				}
				if keyed == 0 {
					t.Fatal("no keyed tuple reached connection 0")
				}
			})
		}
	})
}

// BenchmarkSplitterWrites prices the splitter's send loop per tuple over two
// loopback TCP edges drained by plain readers, at runs of 1 and 32, with both
// edges congested (the gate set by hand: a connection writes at the first
// round end at which it holds at least a quarter of the socket buffer) and
// uncongested (one write per run), and
// reports tuples per write.
func BenchmarkSplitterWrites(b *testing.B) {
	payload := make([]byte, 64)
	for _, batch := range []int{1, 32} {
		for _, congested := range []bool{false, true} {
			b.Run(fmt.Sprintf("batch=%d/congested=%v", batch, congested), func(b *testing.B) {
				edges := newTCPEdges(b, 2)
				var wg sync.WaitGroup
				for _, e := range edges {
					wg.Add(1)
					go func() {
						defer wg.Done()
						io.Copy(io.Discard, e.peer)
					}()
				}
				sp, err := NewSplitter(SplitterConfig{
					Senders:        edgeSenders(edges),
					BatchSize:      batch,
					SampleInterval: time.Hour,
					Source:         ConstantSource(payload, uint64(b.N)),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range sp.conns {
					c.congested = congested
				}
				b.ResetTimer()
				sp.Start()
				err = sp.Wait() // closes the senders, which ends the readers
				b.StopTimer()
				wg.Wait()
				if err != nil {
					b.Fatal(err)
				}
				var sent, writes int64
				for _, e := range edges {
					sent += e.sender.Sent()
					writes += e.sender.Flushes()
				}
				if sent != int64(b.N) {
					b.Fatalf("sent %d of %d", sent, b.N)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
				b.ReportMetric(float64(sent)/float64(writes), "tuples/write")
			})
		}
	}
}
