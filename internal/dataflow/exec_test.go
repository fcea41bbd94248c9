package dataflow

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streambalance/internal/runtime"
	"streambalance/internal/testutil"
	"streambalance/internal/transport"
)

// countingSource emits n one-byte payloads and counts how many it was asked
// for, so a test can see how far ahead of the sinks the source ran.
func countingSource(n uint64, emitted *atomic.Int64) runtime.Source {
	return func(seq uint64) ([]byte, bool) {
		if seq >= n {
			return nil, false
		}
		emitted.Add(1)
		return []byte{byte(seq)}, true
	}
}

// waitStalled polls until the counter has not moved for settle, and returns
// where it stopped.
func waitStalled(t *testing.T, c *atomic.Int64, settle time.Duration) int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	last, since := c.Load(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if now := c.Load(); now != last {
			last, since = now, time.Now()
		} else if last > 0 && time.Since(since) >= settle {
			return last
		}
	}
	t.Fatalf("counter still moving (or never moved) after 10s, at %d", last)
	return 0
}

// inprocWorkerHolds is what one worker of an in-proc region can hold between
// its splitter and its merger's sink: its input ring, the batch in its hands,
// and its stream's merger backlog — the ingest ring and reorder queue, held
// together to DefaultMergerQueue, plus the one tuple the merge needs next,
// which is admitted past the cap.
const inprocWorkerHolds = transport.DefaultInprocRing + transport.DefaultRecvBatch +
	runtime.DefaultMergerQueue + 1

// TestExecuteBackPressureAcrossFanOut is the tree form of
// TestChainBackPressurePropagates: with the sink of one branch wedged, the
// source stalls within what the stages and edges between them can hold —
// even though the other branch is free to run — and finishes once the sink
// lets go.
func TestExecuteBackPressureAcrossFanOut(t *testing.T) {
	const n, width, edgeCap = 200_000, 2, 16
	var emitted, left, right atomic.Int64
	release := make(chan struct{})
	gated := true

	g := NewGraph("fanout-wedge")
	src := g.Source("src", countingSource(n, &emitted))
	src.Map("left", runtime.Identity()).Sink("lsink", func(transport.Tuple) {
		if gated {
			<-release
			gated = false
		}
		left.Add(1)
	})
	src.Map("right", runtime.Identity()).Sink("rsink", func(transport.Tuple) { right.Add(1) })
	p, err := g.Plan(PlanConfig{Width: width})
	if err != nil {
		t.Fatal(err)
	}

	// What can sit between the source and the wedged sink: the source's own
	// one-worker stage, one edge, and the left region — inprocWorkerHolds per
	// worker; the two splitters' rounds of one and the forwarding sink's
	// tuple; the edge and one drain of it; and the wedged sink's tuple.
	bound := int64((1+width)*inprocWorkerHolds + 3 + edgeCap + edgeRecvBatch + 1)
	if bound >= n/2 {
		t.Fatalf("bound %d says nothing against %d tuples", bound, n)
	}

	done := make(chan error, 1)
	var res Result
	go func() {
		var err error
		res, err = Execute(p, ExecConfig{ChainOptions: ChainOptions{EdgeCap: edgeCap}})
		done <- err
	}()
	got := waitStalled(t, &emitted, 200*time.Millisecond)
	t.Logf("source stalled %d tuples ahead; the caps allow %d", got, bound)
	if got > bound {
		t.Fatalf("source ran %d tuples ahead of a wedged branch; the caps allow %d", got, bound)
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("execute after release: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("execute did not finish after the sink was released")
	}
	if emitted.Load() != n || left.Load() != n || right.Load() != n {
		t.Fatalf("emitted %d, left %d, right %d, want %d each", emitted.Load(), left.Load(), right.Load(), n)
	}
	for _, name := range []string{"lsink", "rsink"} {
		if st := res.Sinks[name]; st.Count != n || !st.Ordered {
			t.Fatalf("sink %s = %+v, want %d ordered", name, st, n)
		}
	}
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}

// threeStagePlan is src → a (region) → b (stateful PE) → c (region) → sink:
// stage 0, 1 and 2 of the lowered forest.
func threeStagePlan(t *testing.T, src runtime.Source, sink func(transport.Tuple)) *Plan {
	t.Helper()
	g := NewGraph("three-stage")
	g.Source("src", src).
		Map("a", runtime.Identity()).
		Map("b", runtime.Identity(), Stateful()).
		Map("c", runtime.Identity()).
		Sink("out", sink)
	p, err := g.Plan(PlanConfig{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// A stage whose region cannot be built fails the whole run before anything
// streams, and leaves nothing behind. No planned stage can fail to build
// through the public API, so the test spoils one lowered config.
func TestExecuteStageBuildFailure(t *testing.T) {
	var emitted, sunk atomic.Int64
	p := threeStagePlan(t, countingSource(1000, &emitted), func(transport.Tuple) { sunk.Add(1) })
	l, err := lowerPlan(p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l.stages[2].cfg.Recovery.Enabled = true // recovery needs the TCP transport
	res, err := l.run()
	if err == nil || !strings.Contains(err.Error(), "build stage c") {
		t.Fatalf("err = %v, want a build failure naming stage c", err)
	}
	if emitted.Load() != 0 || sunk.Load() != 0 || len(res.Regions) != 0 {
		t.Fatalf("a run that never built streamed: emitted %d, sunk %d, regions %v", emitted.Load(), sunk.Load(), res.Regions)
	}
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}

// A stage that fails mid-stream ends the run with its error joined in,
// without hanging: upstream drains into the closed edge, downstream finishes
// on what already crossed. The failure is a send-stall bound on stage b that
// expires while the wedged sink holds the whole pipeline still.
func TestExecuteMidStreamStageFailure(t *testing.T) {
	const n = 100_000
	var emitted, sunk atomic.Int64
	release := make(chan struct{})
	gated := true
	p := threeStagePlan(t, countingSource(n, &emitted), func(transport.Tuple) {
		if gated {
			<-release
			gated = false
		}
		sunk.Add(1)
	})
	l, err := lowerPlan(p, ExecConfig{ChainOptions: ChainOptions{EdgeCap: 4}})
	if err != nil {
		t.Fatal(err)
	}
	l.stages[1].cfg.Timeouts.SendStall = 20 * time.Millisecond

	done := make(chan error, 1)
	go func() {
		_, err := l.run()
		done <- err
	}()
	// The source stops moving when the pipeline wedges, and again when stage b
	// has failed and upstream has drained into its closed edge. 200 ms of
	// stillness is ten stall windows, so either way b has given up by now.
	waitStalled(t, &emitted, 200*time.Millisecond)
	close(release)
	select {
	case err := <-done:
		t.Logf("joined error: %v", err)
		if err == nil || !strings.Contains(err.Error(), "dataflow: stage b:") {
			t.Fatalf("err = %v, want stage b's failure", err)
		}
		if strings.Contains(err.Error(), "stage a:") || strings.Contains(err.Error(), "stage c:") {
			t.Fatalf("a neighbor failed too: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("execute hung on a failed stage")
	}
	if emitted.Load() != n {
		t.Fatalf("upstream stopped at %d of %d instead of draining", emitted.Load(), n)
	}
	if got := sunk.Load(); got == 0 || got >= n {
		t.Fatalf("sink got %d of %d; want what crossed before the failure, and no more", got, n)
	}
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}
