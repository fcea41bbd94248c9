package runtime

// Property-style invariant tests. Rather than scripting one failure, these
// draw worker counts, kill times, and chaos kinds from seeded generators and
// assert the properties the paper's region must hold under every draw:
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
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"streambalance/internal/chaos"
	"streambalance/internal/core"
	"streambalance/internal/transport"
)

func TestInvariantOrderedReleaseUnderRandomChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized chaos suite skipped in short mode")
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			workers := 2 + rng.Intn(4) // 2..5
			tuples := uint64(6000 + rng.Intn(6000))
			victim := rng.Intn(workers)
			permanent := rng.Intn(2) == 0
			killAt := tuples/5 + uint64(rng.Int63n(int64(tuples/2)))
			// Randomize the splitter's batch size too: ordered release must
			// hold whether tuples leave one write at a time or in vectored
			// batches, including across mid-batch connection kills.
			batchSize := 1 + rng.Intn(64)

			balancer, err := core.NewBalancer(core.Config{
				Connections: workers, DecayEnabled: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ops := make([]Operator, workers)
			for i := range ops {
				ops[i] = Identity()
			}
			proxies := make([]*chaos.Proxy, workers)
			defer func() {
				for _, p := range proxies {
					if p != nil {
						p.Close()
					}
				}
			}()

			var mu sync.Mutex
			var seqs []uint64
			var weightErrs []string
			killed := make(chan struct{})
			rec := RecoveryConfig{Enabled: true, WatermarkInterval: 5 * time.Millisecond}
			if permanent {
				rec.DisableRedial = true
			} else {
				rec.Redial = &transport.RedialPolicy{
					Base: 5 * time.Millisecond,
					Max:  50 * time.Millisecond,
				}
			}
			region, err := NewRegion(RegionConfig{
				Operators: ops,
				Source: func(seq uint64) ([]byte, bool) {
					if seq == killAt {
						select {
						case <-killed:
						default:
							if permanent {
								proxies[victim].SetReject(true)
							}
							proxies[victim].KillActive()
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
				BatchSize:      batchSize,
				Sink: func(tp transport.Tuple, conn int) {
					mu.Lock()
					seqs = append(seqs, tp.Seq)
					mu.Unlock()
				},
				OnSample: func(now time.Duration, rates []float64, weights []int) {
					sum := 0
					bad := ""
					for j, w := range weights {
						if w < 0 || w > core.DefaultUnits {
							bad = fmt.Sprintf("weight[%d]=%d outside [0,%d]", j, w, core.DefaultUnits)
						}
						sum += w
					}
					if sum != core.DefaultUnits {
						bad = fmt.Sprintf("weights %v sum to %d, want %d", weights, sum, core.DefaultUnits)
					}
					if bad != "" {
						mu.Lock()
						weightErrs = append(weightErrs, fmt.Sprintf("t=%v: %s", now, bad))
						mu.Unlock()
					}
				},
				Recovery: rec,
				WrapWorkerAddr: func(i int, addr string) string {
					p, err := chaos.NewProxy(addr)
					if err != nil {
						t.Fatal(err)
					}
					proxies[i] = p
					return p.Addr()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := region.Run()
			if err != nil {
				t.Fatalf("workers=%d victim=%d permanent=%v killAt=%d batch=%d: region failed: %v",
					workers, victim, permanent, killAt, batchSize, err)
			}
			if res.Released != tuples || !res.OrderPreserved {
				t.Fatalf("released=%d order=%v, want %d true", res.Released, res.OrderPreserved, tuples)
			}
			mu.Lock()
			defer mu.Unlock()
			// Gapless, duplicate-free, strictly increasing: release i must
			// carry exactly sequence i.
			if uint64(len(seqs)) != tuples {
				t.Fatalf("sink saw %d releases, want %d", len(seqs), tuples)
			}
			for i, s := range seqs {
				if s != uint64(i) {
					t.Fatalf("release %d carried seq %d (duplicate, gap, or reorder)", i, s)
				}
			}
			for _, e := range weightErrs {
				t.Errorf("weight invariant violated: %s", e)
			}
		})
	}
}

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
				sum := 0
				for j, w := range weights {
					if w < 0 || w > b.Units() {
						t.Fatalf("round %d: weight[%d]=%d outside [0,%d]", round, j, w, b.Units())
					}
					sum += w
				}
				if sum != b.Units() {
					t.Fatalf("round %d: weights %v sum to %d, want %d", round, weights, sum, b.Units())
				}
				// The ISSUE's fractional phrasing: normalized weights sum
				// to 1 within epsilon.
				if frac := float64(sum) / float64(b.Units()); math.Abs(frac-1) > 1e-9 {
					t.Fatalf("round %d: normalized weight sum %v", round, frac)
				}
			}
		})
	}
}
