package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"streambalance/internal/testutil"
	"streambalance/internal/transport"
)

// inproc_equiv_test.go pins the in-process shared-memory transport to the TCP
// reference: for randomized region shapes — fan-out, batch sizes, ring
// capacities down to 1 — the two transports must release identical streams
// (same sequences, same payload bytes, in order, exactly once, nothing
// deduped). The TCP region is the semantic oracle; the in-proc region must be
// indistinguishable through the Region API.

// equivOp derives output bytes from every input byte and the sequence number,
// so a payload corrupted, reordered or cross-wired anywhere on either
// transport changes the released stream.
type equivOp struct{}

func (equivOp) Process(t transport.Tuple) transport.Tuple {
	sum := byte(0)
	for _, b := range t.Payload {
		sum += b
	}
	out := make([]byte, len(t.Payload)+1)
	copy(out, t.Payload)
	out[len(t.Payload)] = sum ^ byte(t.Seq)
	return transport.Tuple{Seq: t.Seq, Payload: out}
}

// equivTrial is one randomized region shape shared by both transports.
type equivTrial struct {
	workers     int
	tuples      uint64
	batch       int
	recvBatch   int
	ringCap     int
	mergerQueue int
}

func randomEquivTrial(rng *rand.Rand) equivTrial {
	ringCaps := []int{1, 1, 2, 3, 5, 8, 64}
	queues := []int{4, 16, 64}
	return equivTrial{
		workers:     1 + rng.Intn(4),
		tuples:      uint64(50 + rng.Intn(351)),
		batch:       1 + rng.Intn(8),
		recvBatch:   rng.Intn(9), // 0 is the default pass
		ringCap:     ringCaps[rng.Intn(len(ringCaps))],
		mergerQueue: queues[rng.Intn(len(queues))],
	}
}

// equivSource generates a payload whose length and bytes depend on seq, so
// distinct tuples are never byte-identical.
func equivSource(n uint64) Source {
	return func(seq uint64) ([]byte, bool) {
		if seq >= n {
			return nil, false
		}
		p := make([]byte, 1+seq%17)
		for i := range p {
			p[i] = byte(seq + uint64(i)*13)
		}
		return p, true
	}
}

type equivOut struct {
	seq     uint64
	payload []byte
}

// runEquivRegion runs one region of the trial's shape on the given transport
// and returns the released stream.
func runEquivRegion(t *testing.T, kind TransportKind, trial equivTrial) ([]equivOut, RegionResult) {
	t.Helper()
	ops := make([]Operator, trial.workers)
	for i := range ops {
		ops[i] = equivOp{}
	}
	var mu sync.Mutex
	var got []equivOut
	region, err := NewRegion(RegionConfig{
		Transport:     kind,
		Operators:     ops,
		Source:        equivSource(trial.tuples),
		BatchSize:     trial.batch,
		RecvBatchSize: trial.recvBatch,
		RingCap:       trial.ringCap,
		MergerQueue:   trial.mergerQueue,
		Sink: func(tp transport.Tuple, conn int) {
			p := append([]byte(nil), tp.Payload...)
			mu.Lock()
			got = append(got, equivOut{seq: tp.Seq, payload: p})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("%s region (%+v): %v", kind, trial, err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatalf("%s region run (%+v): %v", kind, trial, err)
	}
	mu.Lock()
	defer mu.Unlock()
	return got, res
}

// TestInprocEquivalence runs 300 randomized trials comparing the in-proc
// region's released stream against the TCP reference region with the same
// shape: same order, same payloads, exactly once, dedup untouched.
func TestInprocEquivalence(t *testing.T) {
	const trials = 300
	const shards = 6
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for trial := s; trial < trials; trial += shards {
				rng := rand.New(rand.NewSource(int64(trial) * 7919))
				shape := randomEquivTrial(rng)
				want, wantRes := runEquivRegion(t, TransportTCP, shape)
				got, gotRes := runEquivRegion(t, TransportInproc, shape)

				for name, res := range map[string]RegionResult{"tcp": wantRes, "inproc": gotRes} {
					if res.Released != shape.tuples {
						t.Fatalf("trial %d (%+v): %s released %d, want %d", trial, shape, name, res.Released, shape.tuples)
					}
					if !res.OrderPreserved {
						t.Fatalf("trial %d (%+v): %s broke order", trial, shape, name)
					}
					if res.Deduped != 0 {
						t.Fatalf("trial %d (%+v): %s deduped %d", trial, shape, name, res.Deduped)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d (%+v): inproc sank %d tuples, tcp %d", trial, shape, len(got), len(want))
				}
				for i := range want {
					if got[i].seq != want[i].seq {
						t.Fatalf("trial %d (%+v): position %d seq %d (inproc) vs %d (tcp)",
							trial, shape, i, got[i].seq, want[i].seq)
					}
					if !bytes.Equal(got[i].payload, want[i].payload) {
						t.Fatalf("trial %d (%+v): seq %d payload %x (inproc) vs %x (tcp)",
							trial, shape, want[i].seq, got[i].payload, want[i].payload)
					}
				}
			}
		})
	}
}

// TestInprocRegionTeardownNoGoroutineLeaks pins that a completed in-proc
// region leaves nothing behind: workers, merger readers, splitter controller
// all exit.
func TestInprocRegionTeardownNoGoroutineLeaks(t *testing.T) {
	region, err := NewRegion(RegionConfig{
		Transport: TransportInproc,
		Operators: []Operator{equivOp{}, equivOp{}, equivOp{}},
		Source:    equivSource(5000),
		BatchSize: 4,
		RingCap:   16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := region.Run(); err != nil {
		t.Fatal(err)
	}
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}

// TestInprocRegionCloseWhileCapParked tears a region down at its nastiest
// moment: rings at capacity 1, the sink wedged, senders parked mid-block.
// Close must wake every parked goroutine and the region must unwind without
// leaks once the sink is released.
func TestInprocRegionCloseWhileCapParked(t *testing.T) {
	gate := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	region, err := NewRegion(RegionConfig{
		Transport:   TransportInproc,
		Operators:   []Operator{equivOp{}, equivOp{}},
		Source:      equivSource(100_000),
		RingCap:     1,
		MergerQueue: 4,
		Sink: func(transport.Tuple, int) {
			once.Do(func() { close(first) })
			<-gate
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The teardown races the stream on purpose; the run may or may not
		// report an interruption error, and either is fine — the assertion
		// is that nothing survives.
		region.Run()
	}()
	<-first
	// Let the back pressure cascade: with the sink wedged and every ring at
	// capacity 1, workers and splitter park on full rings.
	time.Sleep(50 * time.Millisecond)
	region.Close()
	close(gate)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("region.Run did not return after Close")
	}
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
}

// openDescriptors counts the process's open file descriptors.
func openDescriptors(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd here: %v", err)
	}
	return len(ents)
}

// TestInprocRegionOpensNoSocket: an in-proc region has nothing to dial, so
// building and running one must leave the descriptor table alone — no merger
// listener, no accept loop — while the same region over TCP visibly opens
// sockets.
func TestInprocRegionOpensNoSocket(t *testing.T) {
	// Let earlier tests' teardown finish closing their sockets first.
	testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
	region := func(kind TransportKind) *Region {
		r, err := NewRegion(RegionConfig{
			Transport: kind,
			Operators: []Operator{Identity(), Identity()},
			Source:    ConstantSource([]byte("x"), 500),
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	run := func(r *Region) {
		if res, err := r.Run(); err != nil || res.Released != 500 || !res.OrderPreserved {
			t.Fatalf("run: %+v, %v", res, err)
		}
	}

	before := openDescriptors(t)
	r := region(TransportInproc)
	if addr := r.merger.Addr(); addr != "" {
		t.Fatalf("in-proc merger listens on %q", addr)
	}
	if got := openDescriptors(t); got != before {
		t.Fatalf("NewRegion{inproc} moved the descriptor count %d -> %d", before, got)
	}
	run(r)
	if got := openDescriptors(t); got != before {
		t.Fatalf("running an in-proc region moved the descriptor count %d -> %d", before, got)
	}

	r = region(TransportTCP)
	if got := openDescriptors(t); got <= before {
		t.Fatalf("NewRegion{tcp} left the descriptor count at %d (was %d): the check cannot see sockets", got, before)
	}
	run(r)
}
