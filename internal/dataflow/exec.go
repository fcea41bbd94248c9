package dataflow

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// ExecConfig controls plan execution.
type ExecConfig struct {
	// ChainOptions bounds every stage-to-stage edge, as it does RunChain's.
	ChainOptions
	// SampleInterval is the region splitters' collection interval
	// (default 50ms — wall time, since execution is real).
	SampleInterval time.Duration
	// DisableBalancing runs every region on plain round-robin.
	DisableBalancing bool
}

// SinkStats reports one sink's view of the stream.
type SinkStats struct {
	// Count is the number of tuples consumed.
	Count uint64
	// Ordered reports whether tuples arrived in strictly increasing
	// sequence order — the sequential-semantics guarantee.
	Ordered bool
}

// RegionStats reports one data-parallel region's balancing outcome.
type RegionStats struct {
	Name          string
	Width         int
	FinalWeights  []int
	TotalBlocking []time.Duration
	Processed     []int64 // tuples sent to each replica
}

// Result summarizes one execution.
type Result struct {
	Sinks   map[string]SinkStats
	Regions []RegionStats
	Elapsed time.Duration
}

// Execute runs the plan to completion: every source is drained and every
// tuple has reached its sinks when Execute returns. Each stage is lowered
// onto one in-process runtime.Region (see lower) and the stages run as
// RunChain's do; a stage that fails to build or fails mid-stream ends the
// run with the joined errors instead of wedging its neighbors.
func Execute(p *Plan, cfg ExecConfig) (Result, error) {
	l, err := lowerPlan(p, cfg)
	if err != nil {
		return Result{}, err
	}
	return l.run()
}

// lowerPlan turns the plan's stage tree into the runner's stage forest.
func lowerPlan(p *Plan, cfg ExecConfig) (*lowering, error) {
	if p == nil || len(p.Roots) == 0 {
		return nil, errors.New("dataflow: empty plan")
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = 50 * time.Millisecond
	}
	l := &lowering{cfg: cfg, sinks: make(map[string]int)}
	for _, root := range p.Roots {
		if root.Kind != StageSource {
			return nil, fmt.Errorf("dataflow: root stage %q is not a source", root.Name)
		}
		// A source feeding exactly one operator stage is that stage's
		// Source; one that fans out, or feeds a sink directly, needs a
		// region of its own to own the edges.
		st := root
		if len(root.Downstream) == 1 && root.Downstream[0].Kind != StageSink {
			st = root.Downstream[0]
		}
		if err := l.lower(st, -1, root.node.src); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// run executes the lowered forest and gathers what the sinks and regions saw.
func (l *lowering) run() (Result, error) {
	results, elapsed, err := runStages(l.stages, l.cfg.EdgeCap)
	if results == nil { // a stage failed to build; nothing ran
		return Result{}, err
	}
	res := Result{Sinks: make(map[string]SinkStats, len(l.sinks)), Elapsed: elapsed}
	for name, stage := range l.sinks {
		// The stage's own release check ran in the callback that called the
		// sink, so it is the sink's view too.
		res.Sinks[name] = SinkStats{Count: results[stage].Released, Ordered: results[stage].OrderPreserved}
	}
	for _, r := range l.regions {
		rr := results[r.stage]
		r.stats.TotalBlocking = rr.TotalBlocking
		r.stats.Processed = rr.PerConnSent
		if b := l.stages[r.stage].cfg.Balancer; b != nil {
			r.stats.FinalWeights = b.Weights()
		}
		res.Regions = append(res.Regions, r.stats)
	}
	sort.Slice(res.Regions, func(i, j int) bool { return res.Regions[i].Name < res.Regions[j].Name })
	return res, err
}

// lowering accumulates the stage forest and the bookkeeping Execute reports.
type lowering struct {
	cfg     ExecConfig
	stages  []stageSpec
	regions []loweredRegion
	sinks   map[string]int // sink name → the stage whose merger calls it
}

// loweredRegion ties a StageRegion's stats to its stage.
type loweredRegion struct {
	stage int
	stats RegionStats // FinalWeights starts as the even split a region without a balancer keeps
}

// lower appends st's region — and, recursively, its subtree — to the forest.
// The lowering rule: a StageRegion is Width workers running the fused
// operator chain behind a core.Balancer (round-robin under DisableBalancing);
// a StagePE is the same thing with one worker and no balancer, which is what
// lets a stateful operator see every tuple, in order, on one goroutine; a
// StageSource (see lowerPlan) fuses no operators, so it is a one-worker
// identity stage. Everything else is the runtime's defaults. Downstream
// operator stages hang off the stage by edges; downstream sinks are called
// from its merger, in attachment order.
func (l *lowering) lower(st *Stage, parent int, src runtime.Source) error {
	cfg := runtime.RegionConfig{
		Transport:      runtime.TransportInproc,
		Source:         src,
		SampleInterval: l.cfg.SampleInterval,
	}
	ops := make(fused, len(st.Ops))
	for i, n := range st.Ops {
		ops[i] = n.op
	}
	width := max(st.Width, 1) // only a StageRegion carries a Width
	for i := 0; i < width; i++ {
		cfg.Operators = append(cfg.Operators, ops)
	}
	idx := len(l.stages)
	if st.Kind == StageRegion {
		r := loweredRegion{stage: idx, stats: RegionStats{
			Name:         st.Name,
			Width:        width,
			FinalWeights: core.EvenWeights(width, core.DefaultUnits),
		}}
		if !l.cfg.DisableBalancing {
			b, err := core.NewBalancer(core.Config{
				Connections:  width,
				DecayEnabled: true,
				// The paper's 10%-per-second decay, scaled to the interval.
				DecayFactor: math.Pow(core.DefaultDecayFactor, min(l.cfg.SampleInterval.Seconds(), 1)),
			})
			if err != nil {
				return fmt.Errorf("dataflow: region %s: %w", st.Name, err)
			}
			cfg.Balancer = b
		}
		l.regions = append(l.regions, r)
	}
	l.stages = append(l.stages, stageSpec{name: "stage " + st.Name, parent: parent})

	var sinks []func(transport.Tuple)
	for _, d := range st.Downstream {
		if d.Kind == StageSink {
			l.sinks[d.Name] = idx
			sinks = append(sinks, d.node.sink)
		} else if err := l.lower(d, idx, nil); err != nil {
			return err
		}
	}
	if len(sinks) > 0 {
		cfg.Sink = func(t transport.Tuple, _ int) {
			for _, fn := range sinks {
				fn(t)
			}
		}
	}
	l.stages[idx].cfg = cfg
	return nil
}

// fused runs a stage's operators back to back on one worker.
type fused []runtime.Operator

func (f fused) Process(t transport.Tuple) transport.Tuple {
	for _, op := range f {
		t = op.Process(t)
	}
	return t
}
