package dataflow

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// tagOp appends its tag to every payload, so the final output proves which
// stages a tuple crossed and that payload bytes survived each edge.
type tagOp struct{ tag string }

func (o tagOp) Process(t transport.Tuple) transport.Tuple {
	p := make([]byte, 0, len(t.Payload)+len(o.tag))
	p = append(p, t.Payload...)
	p = append(p, o.tag...)
	return transport.Tuple{Seq: t.Seq, Payload: p}
}

func chainStage(kind runtime.TransportKind, workers int, tag string) runtime.RegionConfig {
	ops := make([]runtime.Operator, workers)
	for i := range ops {
		ops[i] = tagOp{tag: tag}
	}
	return runtime.RegionConfig{
		Transport: kind,
		Operators: ops,
		BatchSize: 4,
	}
}

func TestChainTwoStagesAllTransportMixes(t *testing.T) {
	const n = 4000
	kinds := []runtime.TransportKind{runtime.TransportInproc, runtime.TransportTCP}
	for _, first := range kinds {
		for _, second := range kinds {
			first, second := first, second
			t.Run(fmt.Sprintf("%s_then_%s", first, second), func(t *testing.T) {
				t.Parallel()
				var mu sync.Mutex
				var got []transport.Tuple
				s1 := chainStage(first, 2, "-a")
				s1.Source = func(seq uint64) ([]byte, bool) {
					if seq >= n {
						return nil, false
					}
					return []byte(fmt.Sprintf("t%d", seq)), true
				}
				s2 := chainStage(second, 3, "-b")
				s2.Sink = func(tu transport.Tuple, _ int) {
					p := append([]byte(nil), tu.Payload...)
					mu.Lock()
					got = append(got, transport.Tuple{Seq: tu.Seq, Payload: p})
					mu.Unlock()
				}
				res, err := RunChain([]runtime.RegionConfig{s1, s2}, ChainOptions{EdgeCap: 128})
				if err != nil {
					t.Fatalf("chain: %v", err)
				}
				if len(res.Stages) != 2 {
					t.Fatalf("stages = %d", len(res.Stages))
				}
				for i, sr := range res.Stages {
					if sr.Released != n {
						t.Fatalf("stage %d released %d, want %d", i, sr.Released, n)
					}
					if !sr.OrderPreserved {
						t.Fatalf("stage %d broke order", i)
					}
					if sr.Deduped != 0 {
						t.Fatalf("stage %d deduped %d", i, sr.Deduped)
					}
				}
				if len(got) != n {
					t.Fatalf("sink got %d tuples, want %d", len(got), n)
				}
				for i, tu := range got {
					if tu.Seq != uint64(i) {
						t.Fatalf("sink order broken at %d: seq %d", i, tu.Seq)
					}
					if want := fmt.Sprintf("t%d-a-b", i); string(tu.Payload) != want {
						t.Fatalf("payload[%d] = %q, want %q", i, tu.Payload, want)
					}
				}
			})
		}
	}
}

func TestChainSingleStage(t *testing.T) {
	const n = 1000
	var count atomic.Int64
	cfg := chainStage(runtime.TransportInproc, 2, "-x")
	cfg.Source = runtime.ConstantSource([]byte("p"), n)
	cfg.Sink = func(transport.Tuple, int) { count.Add(1) }
	res, err := RunChain([]runtime.RegionConfig{cfg}, ChainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages[0].Released != n || count.Load() != n {
		t.Fatalf("released %d, sink %d", res.Stages[0].Released, count.Load())
	}
}

func TestChainThreeStages(t *testing.T) {
	const n = 2000
	var mu sync.Mutex
	var payloads []string
	s1 := chainStage(runtime.TransportInproc, 2, "-a")
	s1.Source = runtime.ConstantSource([]byte("t"), n)
	s2 := chainStage(runtime.TransportTCP, 2, "-b")
	s3 := chainStage(runtime.TransportInproc, 2, "-c")
	s3.Sink = func(tu transport.Tuple, _ int) {
		mu.Lock()
		payloads = append(payloads, string(tu.Payload))
		mu.Unlock()
	}
	res, err := RunChain([]runtime.RegionConfig{s1, s2, s3}, ChainOptions{EdgeCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stages[2].Released; got != n {
		t.Fatalf("final stage released %d, want %d", got, n)
	}
	if len(payloads) != n {
		t.Fatalf("sink got %d", len(payloads))
	}
	for i, p := range payloads {
		if p != "t-a-b-c" {
			t.Fatalf("payload[%d] = %q", i, p)
		}
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := RunChain(nil, ChainOptions{}); err == nil {
		t.Fatal("empty chain accepted")
	}
	// Stage 0 without a source.
	c := chainStage(runtime.TransportInproc, 1, "")
	if _, err := RunChain([]runtime.RegionConfig{c}, ChainOptions{}); err == nil {
		t.Fatal("chain without source accepted")
	}
	// Interior stage with its own sink.
	s1 := chainStage(runtime.TransportInproc, 1, "")
	s1.Source = runtime.ConstantSource(nil, 1)
	s1.Sink = func(transport.Tuple, int) {}
	s2 := chainStage(runtime.TransportInproc, 1, "")
	if _, err := RunChain([]runtime.RegionConfig{s1, s2}, ChainOptions{}); err == nil {
		t.Fatal("interior sink accepted")
	}
	// Downstream stage with its own source.
	s1 = chainStage(runtime.TransportInproc, 1, "")
	s1.Source = runtime.ConstantSource(nil, 1)
	s2 = chainStage(runtime.TransportInproc, 1, "")
	s2.Source = runtime.ConstantSource(nil, 1)
	if _, err := RunChain([]runtime.RegionConfig{s1, s2}, ChainOptions{}); err == nil {
		t.Fatal("downstream source accepted")
	}
	// A stage that cannot build (recovery on the in-proc transport) must
	// fail the whole chain cleanly.
	s1 = chainStage(runtime.TransportInproc, 1, "")
	s1.Source = runtime.ConstantSource(nil, 1)
	s2 = chainStage(runtime.TransportInproc, 1, "")
	s2.Recovery.Enabled = true
	if _, err := RunChain([]runtime.RegionConfig{s1, s2}, ChainOptions{}); err == nil {
		t.Fatal("unbuildable stage accepted")
	}
}

// TestChainBackPressurePropagates pins the composed blocking cascade: with
// the final sink wedged, the source cannot run more than the chain's total
// buffering ahead — the stall crosses the inter-stage edge, both regions and
// every ring in between.
func TestChainBackPressurePropagates(t *testing.T) {
	const n, workers, batch, edgeCap = 50000, 2, 4, 16
	release := make(chan struct{})
	var emitted atomic.Int64
	var sunk atomic.Int64

	s1 := chainStage(runtime.TransportInproc, workers, "-a")
	s1.Source = func(seq uint64) ([]byte, bool) {
		if seq >= n {
			return nil, false
		}
		emitted.Add(1)
		return []byte("x"), true
	}
	s2 := chainStage(runtime.TransportInproc, workers, "-b")
	gated := true
	s2.Sink = func(transport.Tuple, int) {
		if gated {
			<-release
			gated = false
		}
		sunk.Add(1)
	}

	done := make(chan error, 1)
	go func() {
		_, err := RunChain([]runtime.RegionConfig{s1, s2}, ChainOptions{EdgeCap: edgeCap})
		done <- err
	}()

	// What can sit between the source and the wedged sink: inprocWorkerHolds
	// per worker of either stage; each splitter's round and the forwarding
	// sink's tuple; the edge and one drain of it; and the wedged sink's
	// tuple. Without propagation the source would finish.
	bound := int64(2*workers*inprocWorkerHolds + 2*batch + 1 + edgeCap + edgeRecvBatch + 1)
	if bound >= n/2 {
		t.Fatalf("bound %d says nothing against %d tuples", bound, n)
	}

	// Let the chain wedge against the gated sink, then check the source
	// stalled within the chain's bounded buffering.
	deadline := time.After(5 * time.Second)
	for emitted.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("source never ran")
		case <-time.After(time.Millisecond):
		}
	}
	time.Sleep(300 * time.Millisecond)
	got := emitted.Load()
	t.Logf("source ran %d tuples ahead; the caps allow %d", got, bound)
	if got > bound {
		t.Fatalf("source emitted %d tuples against a wedged sink, the caps allow %d; back pressure did not propagate", got, bound)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("chain after release: %v", err)
	}
	if emitted.Load() != n || sunk.Load() != n {
		t.Fatalf("emitted %d, sunk %d, want %d", emitted.Load(), sunk.Load(), n)
	}
}
