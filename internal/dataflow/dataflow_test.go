package dataflow

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// Planned-graph tests carry one little-endian uint64 per payload.
func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func val(t transport.Tuple) uint64 { return binary.LittleEndian.Uint64(t.Payload) }

// intSource emits 0..n-1.
func intSource(n uint64) runtime.Source {
	return func(seq uint64) ([]byte, bool) {
		if seq >= n {
			return nil, false
		}
		return u64(seq), true
	}
}

// mapU64 lifts a function on the payload's value to an operator; it writes a
// fresh payload, as the ownership rule demands.
func mapU64(f func(uint64) uint64) runtime.Operator {
	return runtime.OperatorFunc(func(t transport.Tuple) transport.Tuple {
		return transport.Tuple{Seq: t.Seq, Payload: u64(f(val(t)))}
	})
}

func discard(transport.Tuple) {}

func TestGraphValidation(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Graph
	}{
		{"empty graph", func() *Graph { return NewGraph("g") }},
		{"source feeds nothing", func() *Graph {
			g := NewGraph("g")
			g.Source("src", intSource(1))
			return g
		}},
		{"operator feeds nothing", func() *Graph {
			g := NewGraph("g")
			g.Source("src", intSource(1)).Map("op", runtime.Identity())
			return g
		}},
		{"nil source function", func() *Graph {
			g := NewGraph("g")
			g.Source("src", nil).Sink("out", discard)
			return g
		}},
		{"nil op function", func() *Graph {
			g := NewGraph("g")
			g.Source("src", intSource(1)).Map("op", nil).Sink("out", discard)
			return g
		}},
		{"nil sink function", func() *Graph {
			g := NewGraph("g")
			g.Source("src", intSource(1)).Sink("out", nil)
			return g
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build().Plan(PlanConfig{}); err == nil {
				t.Fatal("invalid graph planned successfully")
			}
		})
	}
}

func TestPlanFusesStatelessChain(t *testing.T) {
	g := NewGraph("fuse")
	g.Source("src", intSource(10)).
		Map("a", runtime.Identity()).
		Map("b", runtime.Identity()).
		Map("c", runtime.Identity()).
		Sink("out", discard)

	// Width 1: the chain fuses into a single PE.
	p, err := g.Plan(PlanConfig{Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	pe := p.Roots[0].Downstream[0]
	if pe.Kind != StagePE || len(pe.Ops) != 3 {
		t.Fatalf("stage = kind %d with %d ops, want fused PE of 3", pe.Kind, len(pe.Ops))
	}
	if pe.Name != "a+b+c" {
		t.Fatalf("fused name = %q, want a+b+c", pe.Name)
	}
	if len(p.Regions()) != 0 {
		t.Fatal("width 1 must not create regions")
	}

	// Width 4: the same chain becomes one ordered region.
	p, err = g.Plan(PlanConfig{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	regions := p.Regions()
	if len(regions) != 1 || regions[0].Width != 4 || len(regions[0].Ops) != 3 {
		t.Fatalf("regions = %+v, want one 4-wide region of 3 ops", regions)
	}
	if !strings.Contains(p.String(), "region a+b+c x4") {
		t.Fatalf("plan rendering missing region:\n%s", p.String())
	}
}

func TestPlanStatefulBoundsRegions(t *testing.T) {
	g := NewGraph("stateful")
	g.Source("src", intSource(10)).
		Map("pre", runtime.Identity()).
		Map("agg", runtime.Identity(), Stateful()).
		Map("post", runtime.Identity()).
		Sink("out", discard)

	p, err := g.Plan(PlanConfig{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	regions := p.Regions()
	if len(regions) != 2 {
		t.Fatalf("got %d regions, want 2 (pre and post, split by the stateful op)", len(regions))
	}
	// The stateful op is its own single PE.
	stage := p.Roots[0].Downstream[0].Downstream[0]
	if stage.Kind != StagePE || stage.Name != "agg" {
		t.Fatalf("middle stage = kind %d name %q, want PE agg", stage.Kind, stage.Name)
	}
}

func TestPlanFanOutIsTaskParallel(t *testing.T) {
	g := NewGraph("fanout")
	src := g.Source("src", intSource(10))
	branch := src.Map("shared", runtime.Identity())
	branch.Map("left", runtime.Identity()).Sink("lsink", discard)
	branch.Map("right", runtime.Identity()).Sink("rsink", discard)

	p, err := g.Plan(PlanConfig{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	shared := p.Roots[0].Downstream[0]
	if len(shared.Downstream) != 2 {
		t.Fatalf("shared stage has %d downstream branches, want 2", len(shared.Downstream))
	}
	// The fan-out bounds the region: "shared" must not be fused with
	// "left" or "right".
	if len(shared.Ops) != 1 || shared.Ops[0].name != "shared" {
		t.Fatalf("shared stage ops = %v, want just the shared op", shared.Name)
	}
}

func TestExecutePipelineOrderAndResults(t *testing.T) {
	const n = 5000
	var mu sync.Mutex
	var got []uint64
	g := NewGraph("pipeline")
	g.Source("src", intSource(n)).
		Map("double", mapU64(func(v uint64) uint64 { return v * 2 })).
		Map("inc", mapU64(func(v uint64) uint64 { return v + 1 })).
		Sink("out", func(t transport.Tuple) {
			mu.Lock()
			got = append(got, val(t))
			mu.Unlock()
		})
	p, err := g.Plan(PlanConfig{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Sinks["out"]
	if st.Count != n || !st.Ordered {
		t.Fatalf("sink stats = %+v, want %d ordered tuples", st, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("sink got %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if want := uint64(i)*2 + 1; v != want {
			t.Fatalf("value %d = %d, want %d (order or computation broken)", i, v, want)
		}
	}
	if len(res.Regions) != 1 {
		t.Fatalf("got %d region stats, want 1", len(res.Regions))
	}
	region := res.Regions[0]
	sum := 0
	var procSum int64
	for _, w := range region.FinalWeights {
		sum += w
	}
	for _, c := range region.Processed {
		procSum += c
	}
	if sum != core.DefaultUnits {
		t.Fatalf("region weights %v sum to %d, want %d", region.FinalWeights, sum, core.DefaultUnits)
	}
	if procSum != n {
		t.Fatalf("replicas processed %d tuples, want %d", procSum, n)
	}
}

func TestExecuteTaskParallelBranches(t *testing.T) {
	const n = 2000
	var leftCount, rightCount uint64
	var mu sync.Mutex
	g := NewGraph("branches")
	src := g.Source("src", intSource(n))
	src.Map("left", runtime.Identity()).Sink("lsink", func(transport.Tuple) {
		mu.Lock()
		leftCount++
		mu.Unlock()
	})
	src.Map("right", runtime.Identity()).Sink("rsink", func(transport.Tuple) {
		mu.Lock()
		rightCount++
		mu.Unlock()
	})
	p, err := g.Plan(PlanConfig{Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if leftCount != n || rightCount != n {
		t.Fatalf("branch counts = %d/%d, want %d each (task parallelism duplicates tuples)", leftCount, rightCount, n)
	}
	for _, name := range []string{"lsink", "rsink"} {
		if st := res.Sinks[name]; !st.Ordered || st.Count != n {
			t.Fatalf("sink %s = %+v, want %d ordered tuples", name, st, n)
		}
	}
}

func TestExecuteStatefulOperatorSeesOrder(t *testing.T) {
	// A stateful running-sum after a wide region: sequential semantics mean
	// the sum must be exactly the sum over the ordered prefix.
	const n = 3000
	var sum uint64
	var finalSums []uint64
	g := NewGraph("stateful-order")
	g.Source("src", intSource(n)).
		Map("spin", runtime.Identity()).
		Map("runsum", mapU64(func(v uint64) uint64 {
			sum += v
			return sum
		}), Stateful()).
		Sink("out", func(t transport.Tuple) { finalSums = append(finalSums, val(t)) })
	p, err := g.Plan(PlanConfig{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(p, ExecConfig{}); err != nil {
		t.Fatal(err)
	}
	if len(finalSums) != n {
		t.Fatalf("sink got %d sums, want %d", len(finalSums), n)
	}
	var want uint64
	for i := uint64(0); i < n; i++ {
		want += i
		if finalSums[i] != want {
			t.Fatalf("running sum at %d = %d, want %d: region broke sequential semantics", i, finalSums[i], want)
		}
	}
}

func TestExecuteBalancedRegionStaysSane(t *testing.T) {
	// Identical replicas with real work: the balancer must keep weights
	// valid and roughly even, and every tuple must flow.
	const n = 20_000
	g := NewGraph("balanced")
	g.Source("src", intSource(n)).
		Map("work", mapU64(func(v uint64) uint64 {
			x := v | 3
			acc := uint64(1)
			for i := 0; i < 2000; i++ {
				acc *= x
			}
			if acc == 0 { // defeat dead-code elimination; never true for odd x
				return 0
			}
			return v
		})).
		Sink("out", discard)
	p, err := g.Plan(PlanConfig{Width: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p, ExecConfig{SampleInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Sinks["out"]; st.Count != n || !st.Ordered {
		t.Fatalf("sink = %+v, want %d ordered", st, n)
	}
	region := res.Regions[0]
	for r, w := range region.FinalWeights {
		if w < 0 || w > core.DefaultUnits {
			t.Fatalf("replica %d weight %d out of range", r, w)
		}
	}
}

func TestExecuteEmptyPlan(t *testing.T) {
	if _, err := Execute(nil, ExecConfig{}); err == nil {
		t.Fatal("nil plan executed")
	}
}

func TestExecuteWithoutBalancing(t *testing.T) {
	const n = 1000
	g := NewGraph("unbalanced")
	g.Source("src", intSource(n)).
		Map("id", runtime.Identity()).
		Sink("out", discard)
	p, err := g.Plan(PlanConfig{Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(p, ExecConfig{DisableBalancing: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Sinks["out"]; st.Count != n || !st.Ordered {
		t.Fatalf("sink = %+v, want %d ordered", st, n)
	}
	// Without balancing the weights stay at the even initial split.
	region := res.Regions[0]
	for _, w := range region.FinalWeights {
		if w < 300 || w > 400 {
			t.Fatalf("weights %v moved without balancing", region.FinalWeights)
		}
	}
}
