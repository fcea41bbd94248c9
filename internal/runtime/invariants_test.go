package runtime

// Property-style invariant tests. Rather than scripting one interleaving,
// these draw merger streams, send interleavings and balancer rates from
// seeded generators and assert the properties the paper's region must hold
// under every draw (faults_test.go holds whole regions under injected faults
// to the same two):
//
//   - the merger's release stream is gapless, duplicate-free, and strictly
//     increasing (exactly-once, in-order: Section 2's sequential semantics);
//   - every weight vector the balancer publishes sums exactly to its unit
//     budget R with each weight inside its per-connection bounds
//     (Section 3.4's resource-allocation constraint).
//
// A failing seed reproduces deterministically: the subtest name carries it.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"

	"streambalance/internal/core"
	"streambalance/internal/transport"
)

func TestInvariantMergerExactlyOnceRandomInterleavings(t *testing.T) {
	// Drive the merger directly with randomized seq->worker assignments and
	// injected cross-stream duplicates (the shape replay produces), checking
	// the exactly-once in-order release property and the dedup accounting.
	for _, seed := range []int64{10, 11, 12, 13, 14} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			k := 2 + rng.Intn(3) // 2..4 workers
			n := uint64(2000 + rng.Intn(2000))
			streams := make([][]uint64, k)
			dups := 0
			for seq := uint64(0); seq < n; seq++ {
				w := rng.Intn(k)
				streams[w] = append(streams[w], seq)
				if rng.Intn(20) == 0 {
					// Replay the tuple on another stream too; appended in
					// seq order, so every stream stays ascending as a real
					// worker's output would.
					d := (w + 1 + rng.Intn(k-1)) % k
					streams[d] = append(streams[d], seq)
					dups++
				}
			}
			for _, s := range streams {
				for i := 1; i < len(s); i++ {
					if s[i] <= s[i-1] {
						t.Fatalf("generator bug: stream not ascending: %v", s)
					}
				}
			}

			var mu sync.Mutex
			var seqs []uint64
			m, err := NewMerger(k, 0, func(tp transport.Tuple, conn int) {
				mu.Lock()
				seqs = append(seqs, tp.Seq)
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			errCh := make(chan error, k)
			for w := 0; w < k; w++ {
				go func(w int) {
					conn := dialWorkerConnErr(m.Addr(), uint32(w))
					if conn == nil {
						errCh <- fmt.Errorf("worker %d: dial failed", w)
						return
					}
					defer conn.Close()
					var frame []byte
					for _, seq := range streams[w] {
						var err error
						frame, err = transport.AppendFrame(frame[:0], transport.Tuple{Seq: seq})
						if err != nil {
							errCh <- err
							return
						}
						if _, err := conn.Write(frame); err != nil {
							errCh <- err
							return
						}
					}
					errCh <- nil
				}(w)
			}
			for w := 0; w < k; w++ {
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Wait(); err != nil {
				t.Fatalf("merge failed: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if uint64(len(seqs)) != n {
				t.Fatalf("released %d tuples, want %d (exactly once)", len(seqs), n)
			}
			for i, s := range seqs {
				if s != uint64(i) {
					t.Fatalf("release %d carried seq %d", i, s)
				}
			}
			if got := m.Deduped(); got != uint64(dups) {
				t.Fatalf("deduped %d replays, injected %d", got, dups)
			}
		})
	}
}

// TestInvariantBatchedSingleInterleavingsOrdered sends each worker's stream
// through a real transport.Sender using a random interleaving of Send,
// one-shot SendBatch, and runs sent from a reused buffer (as the splitter
// sends them) — the ways tuples reach the wire — with
// cross-stream replay duplicates mixed in. Whatever the interleaving, the
// merger must release a gapless, duplicate-free, strictly increasing
// sequence: batching is a wire-level optimization that must be invisible to
// ordering semantics.
func TestInvariantBatchedSingleInterleavingsOrdered(t *testing.T) {
	for _, seed := range []int64{21, 22, 23, 24} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			k := 2 + rng.Intn(3) // 2..4 workers
			n := uint64(2000 + rng.Intn(2000))
			streams := make([][]uint64, k)
			dups := 0
			for seq := uint64(0); seq < n; seq++ {
				w := rng.Intn(k)
				streams[w] = append(streams[w], seq)
				if rng.Intn(20) == 0 {
					d := (w + 1 + rng.Intn(k-1)) % k
					streams[d] = append(streams[d], seq)
					dups++
				}
			}

			var mu sync.Mutex
			var seqs []uint64
			m, err := NewMerger(k, 0, func(tp transport.Tuple, conn int) {
				mu.Lock()
				seqs = append(seqs, tp.Seq)
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			errCh := make(chan error, k)
			for w := 0; w < k; w++ {
				go func(w int) {
					conn := dialWorkerConnErr(m.Addr(), uint32(w))
					if conn == nil {
						errCh <- fmt.Errorf("worker %d: dial failed", w)
						return
					}
					defer conn.Close()
					sender, err := transport.NewSender(conn)
					if err != nil {
						errCh <- err
						return
					}
					wrng := rand.New(rand.NewSource(seed*1000 + int64(w)))
					stream := streams[w]
					payload := []byte("interleave")
					var run []transport.Tuple
					for i := 0; i < len(stream); {
						switch wrng.Intn(3) {
						case 0: // per-tuple send
							if err := sender.Send(transport.Tuple{Seq: stream[i], Payload: payload}); err != nil {
								errCh <- err
								return
							}
							i++
						case 1: // one-shot batch
							size := 1 + wrng.Intn(32)
							batch := make([]transport.Tuple, 0, size)
							for j := 0; j < size && i < len(stream); j++ {
								batch = append(batch, transport.Tuple{Seq: stream[i], Payload: payload})
								i++
							}
							if err := sender.SendBatch(batch); err != nil {
								errCh <- err
								return
							}
						default: // a splitter-sized run, built in a reused buffer
							size := 1 + wrng.Intn(16)
							run = run[:0]
							for j := 0; j < size && i < len(stream); j++ {
								run = append(run, transport.Tuple{Seq: stream[i], Payload: payload})
								i++
							}
							if err := sender.SendBatch(run); err != nil {
								errCh <- err
								return
							}
						}
					}
					errCh <- nil
				}(w)
			}
			for w := 0; w < k; w++ {
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Wait(); err != nil {
				t.Fatalf("merge failed: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if uint64(len(seqs)) != n {
				t.Fatalf("released %d tuples, want %d (exactly once)", len(seqs), n)
			}
			for i, s := range seqs {
				if s != uint64(i) {
					t.Fatalf("release %d carried seq %d (duplicate, gap, or reorder)", i, s)
				}
			}
			if got := m.Deduped(); got != uint64(dups) {
				t.Fatalf("deduped %d replays, injected %d", got, dups)
			}
		})
	}
}

// dialWorkerConnErr is dialWorkerConn without *testing.T, safe to call from
// writer goroutines.
func dialWorkerConnErr(addr string, id uint32) net.Conn {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil
	}
	var idBuf [4]byte
	binary.LittleEndian.PutUint32(idBuf[:], id)
	if _, err := conn.Write(idBuf[:]); err != nil {
		conn.Close()
		return nil
	}
	return conn
}

func TestInvariantBalancerWeightsAlwaysFeasible(t *testing.T) {
	// Pure-core property: whatever rates the balancer observes — noisy,
	// adversarial, or degenerate — every vector it publishes must spend
	// exactly R units, each connection's share within [0, R], with or
	// without a per-round step limit.
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(7) // 2..8 connections
			cfg := core.Config{
				Connections:  n,
				DecayEnabled: rng.Intn(2) == 0,
			}
			if rng.Intn(2) == 0 {
				cfg.MaxStep = 1 + rng.Intn(core.DefaultUnits/(2*n))
			}
			b, err := core.NewBalancer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 50; round++ {
				for j := 0; j < n; j++ {
					rate := rng.Float64()
					if rng.Intn(10) == 0 {
						rate = 0 // idle connection
					}
					if err := b.Observe(j, rate); err != nil {
						t.Fatal(err)
					}
				}
				weights, err := b.Rebalance()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if bad := weightsInfeasible(weights, b.Units()); bad != "" {
					t.Fatalf("round %d: %s", round, bad)
				}
			}
		})
	}
}
