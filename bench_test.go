// Package streambalance_test holds the benchmark harness: one benchmark per
// figure of the paper's evaluation (run them with
// `go test -bench=. -benchmem`), plus micro-benchmarks of the model's hot
// paths and ablations of the design choices called out in DESIGN.md.
//
// Figure benchmarks execute a reduced-scale version of the experiment per
// iteration and report the headline shape of that figure as custom metrics
// (for example RR's execution time normalized to Oracle*), so a bench run
// doubles as a quick regression check on the reproduction. Full-scale
// figures are regenerated with cmd/sbench.
package streambalance_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/dataflow"
	"streambalance/internal/harness"
	rt "streambalance/internal/runtime"
	"streambalance/internal/schedule"
	"streambalance/internal/sim"
	"streambalance/internal/transport"
)

// --- Figure benchmarks -----------------------------------------------------

func BenchmarkFig02BlockingRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig2Blocking(30 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(report.Rate.MeanSince(5*time.Second), "blockrate")
	}
}

func BenchmarkSec44Rerouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Sec44Reroute(120 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		var rr, reroute float64
		for _, row := range report.Rows {
			if row.BaseCost != 1000 {
				continue
			}
			switch row.Policy {
			case "RR":
				rr = row.MeanThroughput
			case "RR+reroute":
				reroute = row.MeanThroughput
			}
		}
		if rr > 0 {
			b.ReportMetric(reroute/rr, "reroute-vs-rr")
		}
	}
}

func BenchmarkFig05FixedSplits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig5FixedSplits(45 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		// Mean blocking rate of the 80/20 split: the top-left panel.
		b.ReportMetric(report.Splits[0].MeanRate, "rate@80/20")
	}
}

func BenchmarkFig08Top(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig8Top(160 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(report.Final.FinalWeights[0]), "conn0-final-weight")
	}
}

func BenchmarkFig08Bottom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig8Bottom(120 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(report.Final.FinalThroughput, "final-tput")
	}
}

// reportSweep emits RR's and LB-adaptive's normalized execution times at the
// largest fan-out of the sweep.
func reportSweep(b *testing.B, report harness.SweepReport) {
	b.Helper()
	if len(report.Points) == 0 {
		b.Fatal("empty sweep")
	}
	last := report.Points[len(report.Points)-1]
	for _, row := range last.Rows {
		switch row.Policy {
		case "RR":
			b.ReportMetric(row.NormalizedExec, "rr-norm-exec")
		case "LB-adaptive":
			b.ReportMetric(row.NormalizedExec, "lb-norm-exec")
		}
	}
}

func BenchmarkFig09Static(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig9Static(harness.SweepOptions{Sizes: []int{2, 8}, Tuples: 60_000})
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, report)
	}
}

func BenchmarkFig09Dynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig9Dynamic(harness.SweepOptions{Sizes: []int{2, 8}, Tuples: 60_000})
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, report)
	}
}

func BenchmarkFig10Static(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig10Static(harness.SweepOptions{Sizes: []int{2, 8}, Tuples: 60_000})
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, report)
	}
}

func BenchmarkFig10Dynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig10Dynamic(harness.SweepOptions{Sizes: []int{2, 8}, Tuples: 60_000})
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, report)
	}
}

func BenchmarkFig11Top(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig11Top(90 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(report.Final.FinalWeights[0])/10, "fast-share-%")
	}
}

func BenchmarkFig11Bottom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig11Bottom(harness.SweepOptions{Sizes: []int{24}})
		if err != nil {
			b.Fatal(err)
		}
		evenLB, _ := report.Lookup(24, "Even-LB")
		evenRR, _ := report.Lookup(24, "Even-RR")
		if evenRR.FinalThroughput > 0 {
			b.ReportMetric(evenLB.FinalThroughput/evenRR.FinalThroughput, "lb-vs-rr-tput")
		}
	}
}

func BenchmarkFig12Clustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig12(120 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if report.Clusters != nil {
			last := report.Clusters[len(report.Clusters)-1]
			ids := make(map[int]bool)
			for _, id := range last {
				ids[id] = true
			}
			b.ReportMetric(float64(len(ids)), "clusters")
		}
	}
}

func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := harness.Fig13(harness.SweepOptions{Sizes: []int{32}})
		if err != nil {
			b.Fatal(err)
		}
		reportSweep(b, report)
	}
}

// --- Model hot paths ---------------------------------------------------------

// randomFuncs builds n learned-looking rate functions over the full domain.
func randomFuncs(n int) []*core.RateFunc {
	rng := rand.New(rand.NewSource(42))
	funcs := make([]*core.RateFunc, n)
	for j := range funcs {
		f := core.NewRateFunc(core.DefaultUnits, core.DefaultSmoothingAlpha)
		knee := 10 + rng.Intn(800)
		for i := 0; i < 30; i++ {
			w := rng.Intn(core.DefaultUnits + 1)
			rate := 0.0
			if w > knee {
				rate = float64(w-knee) * 0.002
			}
			if err := f.Observe(w, rate); err != nil {
				panic(err)
			}
		}
		funcs[j] = f
	}
	return funcs
}

func benchmarkSolver(b *testing.B, solve func(core.Problem) (core.Solution, error), n int) {
	funcs := randomFuncs(n)
	p := core.Problem{Funcs: make([]core.Func, n), Total: core.DefaultUnits}
	for j, f := range funcs {
		p.Funcs[j] = f
	}
	// Warm the prediction caches so the benchmark isolates the solver.
	for _, f := range funcs {
		f.Predict(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveFox16(b *testing.B)    { benchmarkSolver(b, core.SolveFox, 16) }
func BenchmarkSolveFox64(b *testing.B)    { benchmarkSolver(b, core.SolveFox, 64) }
func BenchmarkSolveBisect16(b *testing.B) { benchmarkSolver(b, core.SolveBisect, 16) }
func BenchmarkSolveBisect64(b *testing.B) { benchmarkSolver(b, core.SolveBisect, 64) }

func BenchmarkRateFuncObserve(b *testing.B) {
	f := core.NewRateFunc(core.DefaultUnits, core.DefaultSmoothingAlpha)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Observe(rng.Intn(1001), rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRateFuncPredictRebuild(b *testing.B) {
	f := randomFuncs(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Decay dirties the cache, forcing a full rebuild per iteration.
		f.Decay(500, 0.9)
		f.Predict(750)
	}
}

func BenchmarkBalancerRebalance64(b *testing.B) {
	bal, err := core.NewBalancer(core.Config{Connections: 64, DecayEnabled: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for j := 0; j < 64; j++ {
		if err := bal.Observe(j, rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bal.Observe(i%64, rng.Float64()); err != nil {
			b.Fatal(err)
		}
		if _, err := bal.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalancerRebalanceClustered64(b *testing.B) {
	bal, err := core.NewBalancer(core.Config{
		Connections:    64,
		DecayEnabled:   true,
		ClusterEnabled: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for j := 0; j < 64; j++ {
		if err := bal.Observe(j, rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bal.Observe(i%64, rng.Float64()); err != nil {
			b.Fatal(err)
		}
		if _, err := bal.Rebalance(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Events per second of the discrete-event engine itself.
	hosts := []sim.HostSpec{sim.SlowHost("h")}
	pes := make([]sim.PESpec, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(sim.Config{
			Hosts: hosts, PEs: pes, BaseCost: 1000,
			TotalTuples: 50_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		if m.Completed != 50_000 {
			b.Fatal("incomplete run")
		}
	}
	b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationDecay compares the final throughput of the adaptive
// balancer across decay factors on the Figure 8 (top) scenario, reported as
// a custom metric (decay 0.9 is the paper's choice).
func BenchmarkAblationDecay(b *testing.B) {
	for _, factor := range []float64{0.8, 0.9, 0.99} {
		b.Run(formatFactor(factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hosts := []sim.HostSpec{sim.SlowHost("h")}
				pes := []sim.PESpec{
					{Host: 0, Load: sim.StepLoad(100, 1, 20*time.Second)},
					{Host: 0},
					{Host: 0},
				}
				bal, err := core.NewBalancer(core.Config{
					Connections:  3,
					DecayEnabled: true,
					DecayFactor:  factor,
				})
				if err != nil {
					b.Fatal(err)
				}
				pol := sim.NewBalancerPolicy(bal, "LB")
				s, err := sim.New(sim.Config{
					Hosts: hosts, PEs: pes, BaseCost: 1000,
					Duration: 120 * time.Second,
					Policy:   pol,
				})
				if err != nil {
					b.Fatal(err)
				}
				m, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if err := pol.Err(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.FinalThroughput, "final-tput")
			}
		})
	}
}

func formatFactor(f float64) string {
	switch f {
	case 0.8:
		return "decay=0.80"
	case 0.9:
		return "decay=0.90"
	case 0.99:
		return "decay=0.99"
	default:
		return "decay=?"
	}
}

// BenchmarkAblationSolver runs the same learned instance through both exact
// solvers; their objectives must agree, their costs differ.
func BenchmarkAblationSolver(b *testing.B) {
	funcs := randomFuncs(32)
	p := core.Problem{Funcs: make([]core.Func, len(funcs)), Total: core.DefaultUnits}
	for j, f := range funcs {
		p.Funcs[j] = f
		f.Predict(0)
	}
	fox, err := core.SolveFox(p)
	if err != nil {
		b.Fatal(err)
	}
	bisect, err := core.SolveBisect(p)
	if err != nil {
		b.Fatal(err)
	}
	if fox.Objective != bisect.Objective {
		b.Fatalf("solver disagreement: fox %v vs bisect %v", fox.Objective, bisect.Objective)
	}
	b.Run("fox", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveFox(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bisect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SolveBisect(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Extension benchmarks ------------------------------------------------------

func BenchmarkDataflowRegionThroughput(b *testing.B) {
	// Tuples per second through a 4-wide balanced in-process region.
	const n = 30_000
	for i := 0; i < b.N; i++ {
		g := dataflow.NewGraph("bench")
		g.Source("src", func(seq uint64) ([]byte, bool) {
			if seq >= n {
				return nil, false
			}
			return binary.LittleEndian.AppendUint64(nil, seq), true
		}).
			Map("work", rt.OperatorFunc(func(t transport.Tuple) transport.Tuple {
				acc := binary.LittleEndian.Uint64(t.Payload) | 3
				for k := 0; k < 500; k++ {
					acc *= 1664525
				}
				if acc == 1 {
					return transport.Tuple{Seq: t.Seq}
				}
				return t
			})).
			Sink("out", func(transport.Tuple) {})
		plan, err := g.Plan(dataflow.PlanConfig{Width: 4})
		if err != nil {
			b.Fatal(err)
		}
		res, err := dataflow.Execute(plan, dataflow.ExecConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Sinks["out"].Count != n {
			b.Fatal("lost tuples")
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkRegionThroughputBatched pushes tuples through a real 4-worker TCP
// region end to end — splitter, workers, merger — across send batch sizes 1
// and 32 crossed with receive passes capped at 1 and 64 tuples and uncapped
// (recv=0, the default: a pass is what one read delivered). The
// batch=1/recv=1 row is the fully per-tuple baseline; the recv rows at fixed
// send batch isolate the receive side.
func BenchmarkRegionThroughputBatched(b *testing.B) {
	const (
		n       = 30_000
		workers = 4
	)
	payload := make([]byte, 64)
	for _, cfg := range []struct{ batch, recv int }{
		{1, 1}, {1, 64}, {1, 0}, {32, 1}, {32, 64}, {32, 0},
	} {
		b.Run(fmt.Sprintf("batch=%d/recv=%d", cfg.batch, cfg.recv), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bal, err := core.NewBalancer(core.Config{Connections: workers})
				if err != nil {
					b.Fatal(err)
				}
				ops := make([]rt.Operator, workers)
				for j := range ops {
					ops[j] = rt.Identity()
				}
				region, err := rt.NewRegion(rt.RegionConfig{
					Operators: ops,
					Source: func(seq uint64) ([]byte, bool) {
						if seq >= n {
							return nil, false
						}
						return payload, true
					},
					Balancer:       bal,
					SampleInterval: 50 * time.Millisecond,
					BatchSize:      cfg.batch,
					RecvBatchSize:  cfg.recv,
					Sink:           func(transport.Tuple, int) {},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := region.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Released != n || !res.OrderPreserved {
					b.Fatalf("released=%d order=%v", res.Released, res.OrderPreserved)
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkRegionTransport is the transport grid: the same 4-worker region —
// splitter, workers, merger, balancer — on loopback TCP versus the in-process
// shared-memory transport, across send batch sizes. Identity operators keep
// the measurement on the transport itself; the in-proc rows are the headline
// zero-copy speedup over the TCP rows.
func BenchmarkRegionTransport(b *testing.B) {
	const (
		n       = 30_000
		workers = 4
	)
	payload := make([]byte, 64)
	for _, kind := range []rt.TransportKind{rt.TransportTCP, rt.TransportInproc} {
		for _, batch := range []int{1, 32} {
			b.Run(fmt.Sprintf("transport=%s/batch=%d", kind, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bal, err := core.NewBalancer(core.Config{Connections: workers})
					if err != nil {
						b.Fatal(err)
					}
					ops := make([]rt.Operator, workers)
					for j := range ops {
						ops[j] = rt.Identity()
					}
					region, err := rt.NewRegion(rt.RegionConfig{
						Transport: kind,
						Operators: ops,
						Source: func(seq uint64) ([]byte, bool) {
							if seq >= n {
								return nil, false
							}
							return payload, true
						},
						Balancer:       bal,
						SampleInterval: 50 * time.Millisecond,
						BatchSize:      batch,
						Sink:           func(transport.Tuple, int) {},
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := region.Run()
					if err != nil {
						b.Fatal(err)
					}
					if res.Released != n || !res.OrderPreserved {
						b.Fatalf("released=%d order=%v", res.Released, res.OrderPreserved)
					}
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tuples/s")
			})
		}
	}
}

// keyedRouter builds the KeyRouter named by a BenchmarkKeyedRouting row and,
// for pkg-balanced, the core.Balancer whose sampled blocking rates feed it
// penalties.
func keyedRouter(b *testing.B, name string, workers int) (schedule.KeyRouter, *core.Balancer) {
	b.Helper()
	var (
		r   schedule.KeyRouter
		bal *core.Balancer
		err error
	)
	switch name {
	case "hash":
		r, err = schedule.NewHashRouter(workers)
	case "pkg":
		r, err = schedule.NewPKGRouter(workers)
	case "pkg-balanced":
		if r, err = schedule.NewPKGRouter(workers); err == nil {
			bal, err = core.NewBalancer(core.Config{Connections: workers})
		}
	default:
		b.Fatalf("unknown router %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	return r, bal
}

// BenchmarkKeyedRouting is the keyed bake-off grid: hash grouping versus
// partial key grouping versus PKG with the minimax balancer's blocking-rate
// penalties, across Zipf skew and fan-out, with the per-key sum combiner
// installed. Workers model per-tuple service time by sleeping, not spinning,
// so a hash router's hot-key pileup costs real throughput even on a host with
// fewer cores than workers, while PKG's two-choice split spreads it. Every
// tuple carries the unit value 1, so each iteration self-checks: release
// order, Released + CombinedReleased covering the stream, and the released
// per-key sums adding up to the stream length. Each row also reports
// combiner-hits: tuples absorbed into same-key carriers per iteration, the
// combiner's merger-ingest reduction.
func BenchmarkKeyedRouting(b *testing.B) {
	const (
		n    = 30_000
		keys = 10_000
		seed = 1
	)
	payload := make([]byte, 64)
	payload[0] = 1 // little-endian unit value
	for _, router := range []string{"hash", "pkg", "pkg-balanced"} {
		for _, alpha := range []float64{0.8, 1.1, 1.5} {
			for _, workers := range []int{4, 16, 64} {
				b.Run(fmt.Sprintf("router=%s/alpha=%g/workers=%d", router, alpha, workers), func(b *testing.B) {
					ks := sim.NewZipfStream(keys, alpha, seed)
					var hits uint64
					for i := 0; i < b.N; i++ {
						r, bal := keyedRouter(b, router, workers)
						ops := make([]rt.Operator, workers)
						for j := range ops {
							ops[j] = rt.NewServiceOperator(20 * time.Microsecond)
						}
						var (
							sum      uint64
							lastSeq  uint64
							haveLast bool
							ordered  = true
						)
						region, err := rt.NewRegion(rt.RegionConfig{
							Transport: rt.TransportInproc,
							Operators: ops,
							KeyedSource: func(seq uint64) (uint64, []byte, bool) {
								if seq >= n {
									return 0, nil, false
								}
								return ks.Key(seq), payload, true
							},
							Router:         r,
							Balancer:       bal,
							Combiner:       rt.SumCombiner(),
							SampleInterval: 50 * time.Millisecond,
							Sink: func(t transport.Tuple, _ int) {
								if haveLast && t.Seq <= lastSeq {
									ordered = false
								}
								lastSeq, haveLast = t.Seq, true
								if len(t.Payload) >= 8 {
									sum += binary.LittleEndian.Uint64(t.Payload)
								}
							},
						})
						if err != nil {
							b.Fatal(err)
						}
						res, err := region.Run()
						if err != nil {
							b.Fatal(err)
						}
						if res.Released+res.CombinedReleased != n || !res.OrderPreserved || !ordered {
							b.Fatalf("released %d + %d combined of %d tuples, order=%v",
								res.Released, res.CombinedReleased, n, res.OrderPreserved && ordered)
						}
						if sum != n {
							b.Fatalf("per-key sums add to %d, want %d", sum, n)
						}
						hits += res.CombinerHits
					}
					b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tuples/s")
					b.ReportMetric(float64(hits)/float64(b.N), "combiner-hits")
				})
			}
		}
	}
}

// BenchmarkChainedRegions pushes tuples through two chained 4-worker in-proc
// regions end to end — source, stage-1 merge, inter-stage edge, stage-2
// splitter, final sink — measuring what region→region composition costs on
// top of a single region.
func BenchmarkChainedRegions(b *testing.B) {
	const (
		n       = 30_000
		workers = 4
	)
	payload := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		mkStage := func() rt.RegionConfig {
			ops := make([]rt.Operator, workers)
			for j := range ops {
				ops[j] = rt.Identity()
			}
			return rt.RegionConfig{
				Transport: rt.TransportInproc,
				Operators: ops,
				BatchSize: 32,
			}
		}
		s1 := mkStage()
		s1.Source = func(seq uint64) ([]byte, bool) {
			if seq >= n {
				return nil, false
			}
			return payload, true
		}
		s2 := mkStage()
		sunk := 0
		s2.Sink = func(transport.Tuple, int) { sunk++ }
		res, err := dataflow.RunChain([]rt.RegionConfig{s1, s2}, dataflow.ChainOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if sunk != n || res.Stages[1].Released != n {
			b.Fatalf("sunk=%d released=%d", sunk, res.Stages[1].Released)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "tuples/s")
}
