package runtime

import (
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"streambalance/internal/metrics"
	"streambalance/internal/transport"
)

// ascending returns n tuples with sequences from, from+1, ...
func ascending(from uint64, n int) []transport.Tuple {
	ts := make([]transport.Tuple, n)
	for i := range ts {
		ts[i] = transport.Tuple{Seq: from + uint64(i)}
	}
	return ts
}

// TestIngestCapCountsStagedTuples pins the back-pressure bound under span
// hand-off: the tuples a reader has written into ring slots but not yet
// published count toward the reorder cap, so a reader holding a 64-tuple batch
// behind a gap parks with 4 tuples in the stream's backlog, not 4 plus
// whatever it staged. The test is the merge loop — it makes drain and release
// passes by hand — so "the merge cannot release" lasts exactly as long as
// the test says.
func TestIngestCapCountsStagedTuples(t *testing.T) {
	const queueCap, n = 4, 64
	var released []uint64
	m, err := newMerger(2, queueCap, func(tp *transport.Tuple, _ int) { released = append(released, tp.Seq) }, false)
	if err != nil {
		t.Fatal(err)
	}
	m.SetMetrics(NewRegionMetrics(metrics.New(), nil)) // the park counter is the test's window

	// Stream 0 holds seqs 1..64; seq 0, the gap, is stream 1's.
	done := make(chan bool, 1)
	go func() { done <- m.ingest(0, ascending(1, n), nil, nil) == nil }()
	deadline := time.Now().Add(5 * time.Second)
	for m.mParks.Value() == 0 {
		select {
		case <-done:
			t.Fatalf("ingest returned without parking: backlog %d of cap %d", m.streamDepth(0), queueCap)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("reader never parked at its cap")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Parked means published: everything the reader staged is visible.
	if got := m.rings[0].Len(); got != queueCap {
		t.Fatalf("reader parked with %d tuples published, want %d", got, queueCap)
	}
	m.drainRings()
	if m.releaseRuns() || len(released) != 0 {
		t.Fatalf("released %v behind the gap", released)
	}
	if got := m.streamDepth(0); got != queueCap {
		t.Fatalf("backlog %d with the reader parked, want %d", got, queueCap)
	}

	// The gap tuple arrives on the other stream: the reader resumes, and the
	// bound holds at every pass until its batch is in.
	if m.ingest(1, ascending(0, 1), nil, nil) != nil {
		t.Fatal("ingest of the gap tuple refused")
	}
	for finished := false; !finished; {
		select {
		case ok := <-done:
			if !ok {
				t.Fatal("ingest reported the merger closed")
			}
			finished = true
		default:
		}
		m.drainRings()
		m.releaseRuns()
		if got := m.streamDepth(0); got > queueCap {
			t.Fatalf("backlog %d exceeds cap %d after %d releases", got, queueCap, len(released))
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader did not resume: released %d of %d", len(released), n+1)
		}
		m.wakeAll() // what the merge loop does before it parks
		runtime.Gosched()
	}
	m.drainRings()
	m.releaseRuns()
	if len(released) != n+1 {
		t.Fatalf("released %d tuples, want %d", len(released), n+1)
	}
	for i, seq := range released {
		if seq != uint64(i) {
			t.Fatalf("released[%d] = %d: order broken", i, seq)
		}
	}
}

// parkedIn reports whether a goroutine the named test started is asleep in a
// Parker (past its condition check, inside the wait).
func parkedIn(test string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "(*Cond).Wait") && strings.Contains(g, "(*Parker).Park") &&
			strings.Contains(g, "created by streambalance/internal/runtime."+test) {
			return true
		}
	}
	return false
}

// TestRunReleaseWakesCapParkedReader pins the refill wake under run release:
// one releaseRuns pass pops a 40-tuple run that takes a cap-parked reader's
// backlog from 64 straight past wakeAt (32) to 24, and that reader must be
// woken. A wake that fires only when the depth lands on wakeAt exactly never
// sees the crossing, and the reader sleeps on. The test is the merge loop, as
// in TestIngestCapCountsStagedTuples, so nothing else wakes the reader.
func TestRunReleaseWakesCapParkedReader(t *testing.T) {
	const queueCap, run = 64, 40
	var released []uint64
	m, err := newMerger(2, queueCap, func(tp *transport.Tuple, _ int) { released = append(released, tp.Seq) }, false)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 0 fills its backlog to the cap: seqs 1..40 and 42..65. Stream 1
	// holds seq 0, the gap, and seq 41, which ends stream 0's first run.
	if m.ingest(0, append(ascending(1, run), ascending(run+2, queueCap-run)...), nil, nil) != nil ||
		m.ingest(1, []transport.Tuple{{Seq: 0}, {Seq: run + 1}}, nil, nil) != nil {
		t.Fatal("ingest refused")
	}
	m.drainRings()
	if len(released) != 1 || m.streamDepth(0) != queueCap {
		t.Fatalf("after the drain: released %v, stream 0 backlog %d, want [0] and %d", released, m.streamDepth(0), queueCap)
	}

	// A reader with more of stream 0 parks at the cap.
	done := make(chan bool, 1)
	go func() { done <- m.ingest(0, ascending(queueCap+2, run), nil, nil) == nil }()
	deadline := time.Now().Add(5 * time.Second)
	for !parkedIn("TestRunReleaseWakesCapParkedReader") {
		if time.Now().After(deadline) {
			t.Fatal("reader never parked at its cap")
		}
		time.Sleep(100 * time.Microsecond)
	}

	m.releaseRuns()
	if len(released) != queueCap+2 {
		t.Fatalf("one release pass released %d tuples, want %d", len(released), queueCap+2)
	}
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("ingest reported the merger closed")
		}
	case <-time.After(5 * time.Second):
		m.closed.Store(true)
		m.wakeAll()
		<-done
		t.Fatal("the run took the backlog through wakeAt and the cap-parked reader was not woken")
	}
}

// TestRunReleaseAllocatesNothing: a drainRings + releaseRuns pass over
// run-shaped rings allocates nothing. Every tuple reaches the sink through a
// pointer into storage the merger owns (a ring slot, a FIFO slot, held); a
// pointer to a local copy would move each released tuple to the heap.
func TestRunReleaseAllocatesNothing(t *testing.T) {
	const streams, run = 4, 32
	released := 0
	m, err := newMerger(streams, 0, func(*transport.Tuple, int) { released++ }, false)
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(0)
	push := func(id int, seq uint64) { m.rings[id].Push(mergeItem{t: transport.Tuple{Seq: seq}}) }
	pass := func() {
		// Run k goes to stream 3-k, so drainRings releases run 0 from its
		// ring slots and queues the rest. Stream 1 first gets a copy of run
		// 1's first seq: a tie releaseRuns resolves one item at a time.
		push(1, base+run)
		for k := 0; k < streams; k++ {
			for i := 0; i < run; i++ {
				push(streams-1-k, base+uint64(k*run+i))
			}
		}
		m.drainRings()
		m.releaseRuns()
		base += streams * run
	}
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Fatalf("a drain and release pass allocated %.1f times", allocs)
	}
	if m.Watermark() != base || released != int(base) || m.Deduped() != base/(streams*run) {
		t.Fatalf("watermark %d, released %d, deduped %d after %d tuples", m.Watermark(), released, m.Deduped(), base)
	}
}

// TestIngestPublishesBeforeParking: the sequence the merge loop is parked on
// is the first tuple of a batch whose fifth tuple hits the back-pressure cap.
// The reader must publish what it staged and wake the merge loop before it
// parks — a staged slot is invisible, so parking on it leaves both sides
// asleep for good.
func TestIngestPublishesBeforeParking(t *testing.T) {
	const queueCap, n = 4, 64
	released := make(chan uint64, n+1)
	m, err := newMerger(2, queueCap, func(tp *transport.Tuple, _ int) { released <- tp.Seq }, false)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer func() {
		m.Close()
		m.Wait()
	}()

	// Stream 0: seq 0 (what the merge loop waits for), then 2..64 behind the
	// gap at seq 1, which stream 1 delivers once seq 0 is out.
	done := make(chan bool, 1)
	go func() { done <- m.ingest(0, append(ascending(0, 1), ascending(2, n-1)...), nil, nil) == nil }()
	next := func() uint64 {
		select {
		case seq := <-released:
			return seq
		case <-time.After(5 * time.Second):
			t.Fatalf("merge loop stuck at watermark %d", m.Watermark())
			return 0
		}
	}
	if seq := next(); seq != 0 {
		t.Fatalf("first release is seq %d, want 0", seq)
	}
	if m.ingest(1, ascending(1, 1), nil, nil) != nil {
		t.Fatal("ingest of the gap tuple refused")
	}
	for want := uint64(1); want <= n; want++ {
		if seq := next(); seq != want {
			t.Fatalf("released seq %d, want %d", seq, want)
		}
	}
	if ok := <-done; !ok {
		t.Fatal("ingest reported the merger closed")
	}
}

// TestCapBindsWithoutControlChannel: with no control channel every stream is
// in sequence order, so the reorder cap binds strictly. Stream 1 delivers
// 1..64 while stream 0 withholds seq 0; once the reader has parked at its cap
// and the merge loop has parked with nothing to release, stream 1's backlog
// stays at the cap, and nothing wakes either side until seq 0 arrives. Then
// 0..64 release in order.
func TestCapBindsWithoutControlChannel(t *testing.T) {
	const queueCap, n = 4, 64
	released := make(chan uint64, n+1)
	m, err := newMerger(2, queueCap, func(tp *transport.Tuple, _ int) { released <- tp.Seq }, false)
	if err != nil {
		t.Fatal(err)
	}
	m.SetMetrics(NewRegionMetrics(metrics.New(), nil)) // the park/wake counters are the test's window
	m.Start()
	defer func() {
		m.Close()
		m.Wait()
	}()

	done := make(chan bool, 1)
	go func() { done <- m.ingest(1, ascending(1, n), nil, nil) == nil }()
	overCap := func() {
		if got := m.streamDepth(1); got > queueCap {
			t.Fatalf("backlog %d past cap %d while seq 0 is missing", got, queueCap)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.mParks.Value() == 0 || m.streamDepth(1) < queueCap ||
		!parkedIn("(*Merger).Start") || !parkedIn("TestCapBindsWithoutControlChannel") {
		overCap()
		if time.Now().After(deadline) {
			t.Fatalf("reader and merge loop never both parked: backlog %d, %v parks", m.streamDepth(1), m.mParks.Value())
		}
		runtime.Gosched()
	}
	// Both sides asleep: only a wake can change anything, so the wake and
	// park counts must hold still along with the backlog, here for 20 ms: a
	// cap released on a timer would let the backlog grow inside the window.
	parks, wakes := m.mParks.Value(), m.mWakes.Value()
	for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
		overCap()
		if p, w := m.mParks.Value(), m.mWakes.Value(); p != parks || w != wakes {
			t.Fatalf("parked sides moved: parks %v -> %v, merge wakes %v -> %v", parks, p, wakes, w)
		}
		runtime.Gosched()
	}

	if m.ingest(0, ascending(0, 1), nil, nil) != nil {
		t.Fatal("ingest of the gap tuple refused")
	}
	for want := uint64(0); want <= n; want++ {
		select {
		case seq := <-released:
			if seq != want {
				t.Fatalf("released seq %d, want %d", seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("merge loop stuck at watermark %d", m.Watermark())
		}
	}
	if ok := <-done; !ok {
		t.Fatal("ingest reported the merger closed")
	}
}

// TestReplayPastCapWithControlChannel: a replay queued behind a survivor's
// backlog. Stream 1 carries 1..64 and then seq 0, the sequence the merge
// needs, far past the cap of 4. The reader parks at its cap until the
// control channel attaches; from then on it reads on, and all 65 release in
// order with no timer involved.
func TestReplayPastCapWithControlChannel(t *testing.T) {
	const queueCap, n = 4, 64
	released := make(chan uint64, n+1)
	m, err := NewMerger(2, queueCap, func(tp transport.Tuple, _ int) { released <- tp.Seq })
	if err != nil {
		t.Fatal(err)
	}
	m.SetMetrics(NewRegionMetrics(metrics.New(), nil))
	m.Start()
	defer func() {
		m.Close()
		m.Wait()
	}()

	c1 := dialWorkerConn(t, m.Addr(), 1)
	defer c1.Close()
	seqs := make([]uint64, 0, n+1)
	for seq := uint64(1); seq <= n; seq++ {
		seqs = append(seqs, seq)
	}
	writeTuples(t, c1, append(seqs, 0)...)
	deadline := time.Now().Add(5 * time.Second)
	for m.mParks.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("reader never parked at its cap")
		}
		runtime.Gosched()
	}
	if len(released) != 0 {
		t.Fatalf("released seq %d before the control channel attached", <-released)
	}

	ctrl := dialWorkerConn(t, m.Addr(), controlConnID)
	defer ctrl.Close()
	go io.Copy(io.Discard, ctrl) // the watermark reports
	for want := uint64(0); want <= n; want++ {
		select {
		case seq := <-released:
			if seq != want {
				t.Fatalf("released seq %d, want %d", seq, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("merge stuck at watermark %d behind the replay, backlog %d", m.Watermark(), m.streamDepth(1))
		}
	}
}
