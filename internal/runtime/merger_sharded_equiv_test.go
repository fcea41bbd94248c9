package runtime

import (
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"streambalance/internal/spsc"
	"streambalance/internal/testutil"
	"streambalance/internal/transport"
)

// shardedEngine drives the shipped merge loop single-threaded: a merger built
// with newMerger and never started, whose real drainRings and releaseRuns are
// the consumer, fed through its real spsc.Ring lanes by the model's producers.
// Producer pushes and consumer passes are interleaved by the test's random
// scheduler instead of goroutines, so every interleaving is deterministic and
// replayable from the trial seed while still exercising the paths only
// concurrency reaches in production: tuples overtaken by the watermark while
// parked in a ring (ring-sweep dedup), in-order runs released straight from
// ring slots or popped as runs off the FIFO, full rings forcing the producer
// to pump the consumer, and partial drains leaving residue across watermark
// movements.
type shardedEngine struct {
	m   *Merger
	rel []releaseRec

	pend [][]transport.Tuple // per-conn pending receive batch
	size []int               // per-conn batch size (1 = per-tuple ingest)
}

func newShardedEngine(conns int, ringCap func(conn int) int, batchSize func(conn int) int) *shardedEngine {
	e := &shardedEngine{
		pend: make([][]transport.Tuple, conns),
		size: make([]int, conns),
	}
	m, err := newMerger(conns, 0, func(t *transport.Tuple, conn int) {
		e.rel = append(e.rel, releaseRec{t.Seq, conn})
	}, false)
	if err != nil {
		panic(err)
	}
	e.m = m
	for id := range m.rings {
		m.rings[id] = spsc.NewRing[mergeItem](ringCap(id))
		e.size[id] = batchSize(id)
	}
	return e
}

// next and dedup read the merger's watermark and duplicate count.
func (e *shardedEngine) next() uint64 { return e.m.next.Load() }
func (e *shardedEngine) dedup() int   { return int(e.m.deduped.Load()) }

// arrive buffers one tuple into the connection's pending batch and delivers
// the batch once it reaches the connection's batch size — the reader-side
// ReceiveBatch boundary.
func (e *shardedEngine) arrive(conn int, t transport.Tuple) {
	e.pend[conn] = append(e.pend[conn], t)
	if len(e.pend[conn]) >= e.size[conn] {
		e.deliver(conn)
	}
}

// deliver ingests the connection's pending batch through its ring, mirroring
// Merger.ingest: read-time dedup against the watermark, then a lock-free ring
// push. A full ring pumps the consumer (the model's stand-in for waking the
// merge loop and parking until it drains).
func (e *shardedEngine) deliver(conn int) {
	for _, t := range e.pend[conn] {
		if t.Seq < e.next() {
			e.m.deduped.Add(1)
			continue
		}
		for !e.m.rings[conn].Push(mergeItem{t: t}) {
			if !e.consumerStep() {
				// The consumer made no progress with a full ring: impossible
				// (the merge loop always drains rings), so this would be a
				// wedge bug in the code under test.
				panic("sharded model: ring full and consumer stuck")
			}
		}
	}
	e.pend[conn] = e.pend[conn][:0]
}

// consumerStep is one merge-loop pass: the merger's own drainRings, then its
// releaseRuns. Returns whether anything moved.
func (e *shardedEngine) consumerStep() bool {
	drained := e.m.drainRings()
	return e.m.releaseRuns() || drained
}

// flushQuiesce delivers every partial pending batch and runs the consumer to
// fixpoint with all rings drained — the model's sync point, equivalent to the
// real merger with all readers idle and the merge loop parked.
func (e *shardedEngine) flushQuiesce() {
	for conn := range e.pend {
		if len(e.pend[conn]) > 0 {
			e.deliver(conn)
		}
	}
	for e.consumerStep() {
	}
	if !e.m.ringsEmpty() {
		panic("sharded model: ring not drained at quiescence")
	}
}

// TestShardedVsLockedMergerEquivalence drives the sharded data plane (the
// merger's own drainRings and releaseRuns over real rings, stream queues and
// head index, under a randomized scheduler) and the locked batch-ingest
// reference engine through identical arrival histories — per-tuple and
// run-shaped schedules, randomized per-connection batch sizes including 1,
// cross-connection duplicate injection, and crash/reconnect replay bursts (a suffix of a
// connection's stream re-delivered after a window of already-sent sequences,
// exactly the shape worker recovery produces). Late-attaching and
// early-ending streams fall out of the random assignment: a connection's
// stream is its arrival window, so adds and removes are schedule positions.
//
// The pinned contract is the externally observable one (scheduling may
// legitimately shift which connection a duplicated sequence releases from,
// as in TestMergerBatchIngestEquivalence): at every quiescent sync point both
// engines must agree exactly on the watermark and the total duplicate count,
// the sharded release order must be gapless and exactly once — sequence i at
// position i — and at the end every injected duplicate must have been counted
// exactly once with all n sequences released.
func TestShardedVsLockedMergerEquivalence(t *testing.T) {
	type ev struct {
		conn int
		t    transport.Tuple
	}
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*1000003 + 7))
		conns := 1 + rng.Intn(6)
		n := 1 + rng.Intn(300)

		// Half the trials are run-shaped, as the splitter's run routing
		// produces: runs of 1-32 consecutive sequences go to one connection,
		// and the interleaving below moves bursts of 1-32 arrivals from one
		// connection at a time. The rest assign and interleave per tuple.
		burst := func() int { return 1 }
		if rng.Intn(2) == 0 {
			burst = func() int { return 1 + rng.Intn(32) }
		}

		// Ground-truth assignment: each sequence processed by one connection.
		perConn := make([][]uint64, conns)
		for seq := 0; seq < n; {
			c := rng.Intn(conns)
			for end := min(seq+burst(), n); seq < end; seq++ {
				perConn[c] = append(perConn[c], uint64(seq))
			}
		}

		// Per-connection delivery lists, with crash/reconnect replay: a
		// crashing connection re-delivers a window of sequences it already
		// sent (the splitter's replay after reattach) before continuing.
		dups := 0
		deliveries := make([][]uint64, conns)
		for c := range perConn {
			stream := perConn[c]
			if len(stream) >= 4 && rng.Intn(3) == 0 {
				crash := 1 + rng.Intn(len(stream)-1)
				w := 1 + rng.Intn(crash)
				replay := append([]uint64{}, stream[crash-w:crash]...)
				dups += len(replay)
				rebuilt := append([]uint64{}, stream[:crash]...)
				rebuilt = append(rebuilt, replay...)
				rebuilt = append(rebuilt, stream[crash:]...)
				stream = rebuilt
			}
			deliveries[c] = stream
		}

		// Interleave the per-connection lists into one arrival schedule
		// (each connection stays internally ordered, as TCP guarantees).
		var evs []ev
		cursor := make([]int, conns)
		remaining := 0
		for c := range deliveries {
			remaining += len(deliveries[c])
		}
		for remaining > 0 {
			c := rng.Intn(conns)
			for k := burst(); k > 0 && cursor[c] < len(deliveries[c]); k-- {
				evs = append(evs, ev{c, transport.Tuple{Seq: deliveries[c][cursor[c]]}})
				cursor[c]++
				remaining--
			}
		}

		// Cross-connection duplicate injection at arbitrary positions —
		// replays landing on a different worker after a rebalance.
		for seq := 0; seq < n; seq++ {
			if rng.Intn(5) != 0 {
				continue
			}
			dups++
			e := ev{rng.Intn(conns), transport.Tuple{Seq: uint64(seq)}}
			pos := rng.Intn(len(evs) + 1)
			evs = append(evs, ev{})
			copy(evs[pos+1:], evs[pos:])
			evs[pos] = e
		}

		// Randomized batch sizes (1 forced into rotation) and tiny ring
		// capacities so rings wrap and fill constantly.
		sizes := make([]int, conns)
		for i := range sizes {
			if rng.Intn(4) == 0 {
				sizes[i] = 1
			} else {
				sizes[i] = 1 + rng.Intn(32)
			}
		}
		ringCaps := make([]int, conns)
		for i := range ringCaps {
			ringCaps[i] = 2 + rng.Intn(7)
		}

		sharded := newShardedEngine(conns,
			func(c int) int { return ringCaps[c] },
			func(c int) int { return sizes[c] })
		locked := newBatchedEngine(conns, func(c int) int { return sizes[c] })

		// Two random sync points plus the end; both engines flush at the
		// same event index so their batch boundaries stay aligned.
		syncAt := map[int]bool{len(evs): true}
		for k := 0; k < 2 && len(evs) > 1; k++ {
			syncAt[1+rng.Intn(len(evs)-1)] = true
		}

		for i, e := range evs {
			sharded.arrive(e.conn, e.t)
			locked.arrive(e.conn, e.t)
			// Random partial consumer passes between arrivals leave ring
			// residue across watermark movements — the interleavings the
			// concurrent merge loop produces.
			if rng.Intn(3) == 0 {
				sharded.consumerStep()
			}
			if syncAt[i+1] {
				sharded.flushQuiesce()
				locked.flush()
				lockedRel, lockedDedup := locked.state()
				if got, want := sharded.next(), uint64(len(lockedRel)); got != want {
					t.Fatalf("trial %d sync %d: sharded watermark %d, locked %d", trial, i+1, got, want)
				}
				if sharded.dedup() != lockedDedup {
					t.Fatalf("trial %d sync %d: sharded deduped %d, locked %d", trial, i+1, sharded.dedup(), lockedDedup)
				}
				for j, r := range sharded.rel {
					if r.seq != uint64(j) {
						t.Fatalf("trial %d sync %d: sharded release %d has seq %d", trial, i+1, j, r.seq)
					}
				}
			}
		}

		if len(sharded.rel) != n {
			t.Fatalf("trial %d: sharded released %d of %d", trial, len(sharded.rel), n)
		}
		if sharded.dedup() != dups {
			t.Fatalf("trial %d: sharded deduped %d, injected %d", trial, sharded.dedup(), dups)
		}
		lockedRel, lockedDedup := locked.state()
		if len(lockedRel) != n || lockedDedup != dups {
			t.Fatalf("trial %d: locked released %d deduped %d, want %d and %d",
				trial, len(lockedRel), lockedDedup, n, dups)
		}
	}
}

// TestShardedMergerNetworkReconnectEquivalence runs the equivalence contract
// against the real merger over TCP: a worker crashes mid-stream and
// reattaches with a replay burst, another worker attaches late (so the merge
// head-blocks and survivor backlogs grow against the back-pressure cap with a
// deliberately tiny ring), and a third replays a window without
// disconnecting. The external contract must hold exactly: every sequence
// released once in order, the duplicate count equal to the surplus copies
// delivered, the watermark at the stream total — and teardown after FIN must
// leave no module goroutine behind.
func TestShardedMergerNetworkReconnectEquivalence(t *testing.T) {
	const (
		workers = 3
		total   = 900 // striped: conn c owns seqs ≡ c (mod 3)
		replayW = 40  // seqs worker 1 replays after its reconnect
		dupW    = 25  // seqs worker 0 re-sends without disconnecting
	)
	var got []uint64
	m, err := NewMerger(workers, 64, func(tp transport.Tuple, conn int) {
		got = append(got, tp.Seq)
	})
	if err != nil {
		t.Fatal(err)
	}
	setRings(m, 8)
	m.Start()

	// Control channel: its presence switches the merger to recovery
	// semantics (detach is not fatal, FIN defines completion).
	ctrl, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	var idBuf [4]byte
	binary.LittleEndian.PutUint32(idBuf[:], controlConnID)
	if _, err := ctrl.Write(idBuf[:]); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Drain watermark reports so the writer never backs up.
		var buf [8]byte
		for {
			if _, err := ctrl.Read(buf[:]); err != nil {
				return
			}
		}
	}()

	seqsOf := func(conn, from, to int) []uint64 {
		var out []uint64
		for s := conn; s < total; s += workers {
			if s >= from && s < to {
				out = append(out, uint64(s))
			}
		}
		return out
	}

	c0 := dialWorkerConn(t, m.Addr(), 0)
	c1 := dialWorkerConn(t, m.Addr(), 1)

	// Workers 0 and 1 send their first halves while worker 2 is absent: the
	// merge head-blocks on seq 2 and their backlogs press on the cap.
	writeTuples(t, c0, seqsOf(0, 0, total/2)...)
	half1 := seqsOf(1, 0, total/2)
	writeTuples(t, c1, half1...)

	// Wait for worker 1's attach to be processed before crashing it:
	// otherwise the close can race the handshake and the later reattach is
	// rejected as a duplicate of a stream that only *then* goes live.
	waitLive := func(id int, want bool, what string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; {
			m.ctl.Lock()
			live := m.live[id]
			m.ctl.Unlock()
			if live == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never %s", id, what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitLive(1, true, "attached")

	// Worker 1 crashes...
	c1.Close()
	// ...and worker 2 attaches late with its full stream.
	c2 := dialWorkerConn(t, m.Addr(), 2)
	writeTuples(t, c2, seqsOf(2, 0, total)...)

	// Wait for the crash to be processed — a reattach dialed while the old
	// stream is still live would be rejected as a duplicate id — then
	// reattach worker 1.
	waitLive(1, false, "detached")
	c1b := dialWorkerConn(t, m.Addr(), 1)
	// Replay the last replayW sequences already delivered, then the rest.
	writeTuples(t, c1b, half1[len(half1)-replayW:]...)
	writeTuples(t, c1b, seqsOf(1, total/2, total)...)

	// Worker 0 replays a window without disconnecting (a rebalance replay
	// landing on the same conn), then finishes its stream.
	writeTuples(t, c0, seqsOf(0, 0, total/2)[:dupW]...)
	writeTuples(t, c0, seqsOf(0, total/2, total)...)

	wantDups := uint64(replayW + dupW)
	deadline := time.Now().Add(10 * time.Second)
	for m.Watermark() < total || m.Deduped() < wantDups {
		if time.Now().After(deadline) {
			m.ctl.Lock()
			live := append([]bool{}, m.live...)
			m.ctl.Unlock()
			t.Fatalf("stuck: watermark %d/%d, deduped %d/%d, dupRejects %d, live %v, depths [%d %d %d]",
				m.Watermark(), total, m.Deduped(), wantDups, m.DupRejects(), live,
				m.streamDepth(0), m.streamDepth(1), m.streamDepth(2))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// FIN: the stream total on the control channel completes the merge.
	var fin [8]byte
	binary.LittleEndian.PutUint64(fin[:], total)
	if _, err := ctrl.Write(fin[:]); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Fatalf("merger failed: %v", err)
	}
	c0.Close()
	c1b.Close()
	c2.Close()
	ctrl.Close()

	if len(got) != total {
		t.Fatalf("released %d of %d", len(got), total)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("release %d has seq %d", i, seq)
		}
	}
	if d := m.Deduped(); d != wantDups {
		t.Fatalf("deduped %d, want exactly %d", d, wantDups)
	}
	if wm := m.Watermark(); wm != total {
		t.Fatalf("final watermark %d, want %d", wm, total)
	}
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}
