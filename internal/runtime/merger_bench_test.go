package runtime

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"streambalance/internal/metrics"
	"streambalance/internal/transport"
)

// mergerTrace builds an arrival trace of n tuples spread round-robin-randomly
// over conns connections, with sequence numbers shuffled inside fixed-size
// windows. The window models the disorder the merger actually sees: tuples
// are near-ordered per connection, but replay bursts and skewed workers put
// the next-needed sequence up to a queue-capacity's distance behind newer
// arrivals. Window-local disorder is exactly where the old O(n) sorted-slice
// insert degraded: every insert behind a backlog shifts the tail.
type arrival struct {
	conn int
	t    transport.Tuple
}

func mergerTrace(conns, n, window int, seed int64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	for i := 0; i < n; i += window {
		end := i + window
		if end > n {
			end = n
		}
		sub := seqs[i:end]
		rng.Shuffle(len(sub), func(a, b int) { sub[a], sub[b] = sub[b], sub[a] })
	}
	evs := make([]arrival, n)
	for i := range evs {
		evs[i] = arrival{conn: rng.Intn(conns), t: transport.Tuple{Seq: seqs[i]}}
	}
	return evs
}

// runHeapTrace plays a trace through per-connection seqHeaps with the merge
// loop's release discipline and returns how many tuples released.
func runHeapTrace(queues []seqHeap, evs []arrival) int {
	next := uint64(0)
	released := 0
	for _, e := range evs {
		queues[e.conn].push(mergeItem{t: e.t})
		for {
			progressed := false
			for id := range queues {
				if h, ok := queues[id].head(); ok && h.t.Seq == next {
					queues[id].popMin()
					next++
					released++
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
	}
	return released
}

// runSortedTrace is the same merge over the pre-heap sorted-slice queues,
// using the reference insertSorted from merger_equiv_test.go.
func runSortedTrace(queues [][]transport.Tuple, evs []arrival) int {
	next := uint64(0)
	released := 0
	for _, e := range evs {
		if q, ok := insertSorted(queues[e.conn], e.t); ok {
			queues[e.conn] = q
		}
		for {
			progressed := false
			for id := range queues {
				if len(queues[id]) > 0 && queues[id][0].Seq == next {
					queues[id] = queues[id][1:]
					next++
					released++
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
	}
	return released
}

// BenchmarkMergerEnqueueRelease compares the heap reorder queue against the
// old sorted-slice insert across connection counts, on a trace whose
// disorder window matches DefaultMergerQueue-scale backlogs. The headline is
// the per-tuple cost staying flat for the heap as the backlog grows.
func BenchmarkMergerEnqueueRelease(b *testing.B) {
	const (
		n      = 8192
		window = 1024
	)
	for _, conns := range []int{4, 16, 64} {
		evs := mergerTrace(conns, n, window, int64(conns))
		b.Run(fmt.Sprintf("impl=heap/conns=%d", conns), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				queues := make([]seqHeap, conns)
				if got := runHeapTrace(queues, evs); got != n {
					b.Fatalf("released %d of %d", got, n)
				}
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "tuples/s")
		})
		b.Run(fmt.Sprintf("impl=insertSorted/conns=%d", conns), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				queues := make([][]transport.Tuple, conns)
				if got := runSortedTrace(queues, evs); got != n {
					b.Fatalf("released %d of %d", got, n)
				}
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkMergerIngest measures end-to-end merger ingest over real loopback
// TCP: conns sender goroutines stream b.N round-robin-assigned sequences in
// SendBatch writes of 64, and each reader ingests what one read delivered.
func BenchmarkMergerIngest(b *testing.B) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	for _, conns := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			var released atomic.Uint64
			m, err := NewMerger(conns, 0, func(t transport.Tuple, _ int) {
				released.Add(1)
			})
			if err != nil {
				b.Fatal(err)
			}
			m.Start()
			n := uint64(b.N)
			errCh := make(chan error, conns)
			b.ResetTimer()
			for w := 0; w < conns; w++ {
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
					batch := make([]transport.Tuple, 0, 64)
					for seq := uint64(w); seq < n; seq += uint64(conns) {
						batch = append(batch, transport.Tuple{Seq: seq, Payload: payload})
						if len(batch) == cap(batch) {
							if err := sender.SendBatch(batch); err != nil {
								errCh <- err
								return
							}
							batch = batch[:0]
						}
					}
					if len(batch) > 0 {
						if err := sender.SendBatch(batch); err != nil {
							errCh <- err
							return
						}
					}
					errCh <- nil
				}(w)
			}
			for w := 0; w < conns; w++ {
				if err := <-errCh; err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Wait(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := released.Load(); got != n {
				b.Fatalf("released %d of %d", got, n)
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkReleaseRuns prices the merge loop's drain and release path per
// tuple: four ingest rings are filled in 1024-tuple chunks and emptied by one
// drainRings and one releaseRuns pass per chunk. shape=tuples deals the
// sequence numbers round-robin one at a time (what keyed traffic produces:
// every release moves the tournament); shape=runs deals them in runs of 32
// consecutive numbers per stream, round-robin over the four (what the
// splitter's run routing produces). Under each, metrics=off leaves the merger
// uninstrumented and metrics=on attaches a RegionMetrics; on minus off is the
// number DESIGN §10 records. ns/op is per tuple, fill included. The merger is
// built with NewMerger and fed through its rings, so the file can be copied
// onto a parent commit for a paired comparison.
func BenchmarkReleaseRuns(b *testing.B) {
	const streams, chunk, run = 4, 1024, 32
	for _, shape := range []string{"tuples", "runs"} {
		streamOf := func(seq int) int { return seq % streams }
		if shape == "runs" {
			streamOf = func(seq int) int { return seq / run % streams }
		}
		for _, mode := range []string{"off", "on"} {
			b.Run("shape="+shape+"/metrics="+mode, func(b *testing.B) {
				released := 0
				m, err := NewMerger(streams, 0, func(transport.Tuple, int) { released++ })
				if err != nil {
					b.Fatal(err)
				}
				defer m.Close()
				if mode == "on" {
					m.SetMetrics(NewRegionMetrics(metrics.New(), nil))
				}
				b.ResetTimer()
				for seq := 0; seq < b.N; {
					for end := min(seq+chunk, b.N); seq < end; seq++ {
						m.rings[streamOf(seq)].Push(mergeItem{t: transport.Tuple{Seq: uint64(seq)}})
					}
					m.drainRings()
					m.releaseRuns()
				}
				if released != b.N {
					b.Fatalf("released %d of %d", released, b.N)
				}
			})
		}
	}
}

// BenchmarkSeqHeapPush pins the in-order fast path: pushing an ascending
// sequence is O(1) per push (the sift-up exits on the first compare), which
// is the steady-state case when workers are balanced.
func BenchmarkSeqHeapPush(b *testing.B) {
	h := make(seqHeap, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h) == cap(h) {
			h = h[:0]
		}
		h.push(mergeItem{t: transport.Tuple{Seq: uint64(i)}})
	}
}
