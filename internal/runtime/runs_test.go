package runtime

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"streambalance/internal/metrics"
	"streambalance/internal/schedule"
	"streambalance/internal/transport"
)

// drainEdges builds n in-process edges and drains each on its own goroutine
// until EOF (the splitter closes its senders when its send loop ends). wait
// returns what each connection received, in arrival order.
func drainEdges(t *testing.T, n int) (senders []transport.BatchSender, wait func() [][]transport.Tuple) {
	t.Helper()
	got := make([][]transport.Tuple, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for j := 0; j < n; j++ {
		tx, rx := transport.InprocPair(0)
		senders = append(senders, tx)
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			var batch []transport.Tuple
			for {
				var err error
				batch, _, err = rx.ReceiveBatch(batch, 0)
				got[j] = append(got[j], batch...)
				if err != nil {
					if !errors.Is(err, io.EOF) {
						errs[j] = err
					}
					return
				}
			}
		}(j)
	}
	return senders, func() [][]transport.Tuple {
		wg.Wait()
		for j, err := range errs {
			if err != nil {
				t.Fatalf("drain connection %d: %v", j, err)
			}
		}
		return got
	}
}

// TestSplitterRoutesRuns pins run routing: an unkeyed round of BatchSize
// consecutive sequence numbers is one WRR pick and one full flush, so with
// fixed weights every flush carries a whole run, each connection's share over
// whole frames of runs is exactly its weight share, and the schedule makes one
// pick per run. Keyed tuples keep their per-tuple router pick.
func TestSplitterRoutesRuns(t *testing.T) {
	const batch = 32
	for _, n := range []int{2, 4, 64} {
		t.Run(fmt.Sprintf("conns=%d", n), func(t *testing.T) {
			weights := make([]int, n)
			units := 0
			for j := range weights {
				weights[j] = 1 + j%3
				units += weights[j]
			}
			const frames = 2
			runs := frames * units
			senders, wait := drainEdges(t, n)
			reg := metrics.New()
			sp, err := NewSplitter(SplitterConfig{
				Senders:   senders,
				BatchSize: batch,
				Source:    ConstantSource([]byte("run"), uint64(runs*batch)),
				Metrics:   NewRegionMetrics(reg, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.wrr.SetWeights(weights); err != nil {
				t.Fatal(err)
			}
			sp.Start()
			if err := sp.Wait(); err != nil {
				t.Fatal(err)
			}
			got := wait()
			for j, s := range senders {
				if want := int64(frames * weights[j] * batch); s.Sent() != want {
					t.Fatalf("connection %d sent %d, want %d (weight %d of %d)", j, s.Sent(), want, weights[j], units)
				}
				if s.Sent() != batch*s.Flushes() {
					t.Fatalf("connection %d: %d tuples in %d flushes, want %d a flush", j, s.Sent(), s.Flushes(), batch)
				}
				for i, tu := range got[j] {
					if i%batch == 0 && tu.Seq%batch != 0 || i%batch != 0 && tu.Seq != got[j][i-1].Seq+1 {
						t.Fatalf("connection %d: tuple %d carried seq %d, not part of a run of %d", j, i, tu.Seq, batch)
					}
				}
			}
			if picks := mustSum(t, reg, "spe_schedule_picks_total"); picks != float64(runs) {
				t.Fatalf("%v schedule picks, want one per run (%d)", picks, runs)
			}
		})
	}

	t.Run("keyed", func(t *testing.T) {
		const (
			n     = 4
			total = 4000
		)
		key := func(seq uint64) uint64 { return 1 + seq*2654435761%997 }
		router, err := schedule.NewPKGRouter(n)
		if err != nil {
			t.Fatal(err)
		}
		senders, wait := drainEdges(t, n)
		sp, err := NewSplitter(SplitterConfig{
			Senders:   senders,
			BatchSize: batch,
			KeyedSource: func(seq uint64) (uint64, []byte, bool) {
				return key(seq), []byte("keyed"), seq < total
			},
			Router: router,
		})
		if err != nil {
			t.Fatal(err)
		}
		sp.Start()
		if err := sp.Wait(); err != nil {
			t.Fatal(err)
		}
		ref, err := schedule.NewPKGRouter(n)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, total)
		for seq := range want {
			want[seq] = ref.Route(key(uint64(seq)))
		}
		received := 0
		for j, ts := range wait() {
			for _, tu := range ts {
				if tu.Key != key(tu.Seq) || want[tu.Seq] != j {
					t.Fatalf("seq %d (key %d) landed on connection %d, the router picks %d", tu.Seq, tu.Key, j, want[tu.Seq])
				}
				received++
			}
		}
		if received != total {
			t.Fatalf("received %d of %d keyed tuples", received, total)
		}
	})
}

// BenchmarkSplitterRuns prices the splitter's send loop per tuple at 2, 4 and
// 64 connections (BatchSize 32, even weights) over in-process edges drained by
// one goroutine each, and reports the mean flush size: with run routing it is
// BatchSize whatever the fan-out, where per-tuple picks spread one round's 32
// tuples over every connection. No bench workload has 64 connections; this is
// the row that prices that fan-out.
func BenchmarkSplitterRuns(b *testing.B) {
	const batch = 32
	payload := make([]byte, 64)
	for _, n := range []int{2, 4, 64} {
		b.Run(fmt.Sprintf("conns=%d", n), func(b *testing.B) {
			senders := make([]transport.BatchSender, n)
			var wg sync.WaitGroup
			for j := range senders {
				tx, rx := transport.InprocPair(0)
				senders[j] = tx
				wg.Add(1)
				go func() {
					defer wg.Done()
					var buf []transport.Tuple
					for err := error(nil); err == nil; {
						buf, _, err = rx.ReceiveBatch(buf, 0)
					}
				}()
			}
			sp, err := NewSplitter(SplitterConfig{
				Senders:   senders,
				BatchSize: batch,
				Source:    ConstantSource(payload, uint64(b.N)),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sp.Start()
			err = sp.Wait() // closes the senders, which ends the drains
			b.StopTimer()
			wg.Wait()
			if err != nil {
				b.Fatal(err)
			}
			var sent, flushes int64
			for _, s := range senders {
				sent += s.Sent()
				flushes += s.Flushes()
			}
			if sent != int64(b.N) {
				b.Fatalf("sent %d of %d", sent, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
			b.ReportMetric(float64(sent)/float64(flushes), "tuples/flush")
		})
	}
}
