package dataflow

import (
	"fmt"
	"strings"
)

// StageKind discriminates plan stages.
type StageKind int

const (
	// StageSource generates the stream.
	StageSource StageKind = iota + 1
	// StagePE runs one or more fused operators sequentially in one worker
	// (pipeline parallelism between stages).
	StagePE
	// StageRegion is an ordered data-parallel region: the fused stateless
	// operators are replicated Width ways behind a splitter and an
	// in-order merger, with a balancer unless ExecConfig disables it.
	StageRegion
	// StageSink consumes the stream.
	StageSink
)

// Stage is one executable unit of a plan.
type Stage struct {
	Kind  StageKind
	Name  string
	Ops   []*node // operators fused into this stage (PE and Region kinds)
	Width int     // replica count for StageRegion
	node  *node   // source/sink node
	// Downstream stages; more than one means the same tuples flow to every
	// branch (task parallelism).
	Downstream []*Stage
}

// PlanConfig controls the planner.
type PlanConfig struct {
	// Width is the replication factor for data-parallel regions. Width <=
	// 1 disables data parallelism: stateless chains fuse into plain PEs.
	Width int
	// MinRegionOps is the minimum number of fused stateless operators
	// worth parallelizing (default 1).
	MinRegionOps int
}

// Plan is the executable decomposition of a graph into stages.
type Plan struct {
	Graph *Graph
	Roots []*Stage
}

// Plan decomposes the graph: consecutive stateless operators fuse into one
// unit; if the configured width exceeds one, each maximal stateless chain
// becomes an ordered data-parallel region (Section 2); stateful operators
// become single PEs that bound regions; fan-out edges (task parallelism)
// also bound them.
func (g *Graph) Plan(cfg PlanConfig) (*Plan, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	if cfg.Width <= 0 {
		cfg.Width = 1
	}
	if cfg.MinRegionOps <= 0 {
		cfg.MinRegionOps = 1
	}
	p := &Plan{Graph: g}
	for _, n := range g.nodes {
		if n.kind != nodeSource {
			continue
		}
		stage := &Stage{Kind: StageSource, Name: n.name, node: n}
		stage.Downstream = planBranches(n.downstream, cfg)
		p.Roots = append(p.Roots, stage)
	}
	return p, nil
}

// planBranches plans every downstream branch of a node.
func planBranches(branches []*node, cfg PlanConfig) []*Stage {
	out := make([]*Stage, 0, len(branches))
	for _, b := range branches {
		out = append(out, planChain(b, cfg))
	}
	return out
}

// planChain plans the stage starting at node n.
func planChain(n *node, cfg PlanConfig) *Stage {
	if n.kind == nodeSink {
		return &Stage{Kind: StageSink, Name: n.name, node: n}
	}
	// A stateful operator is its own PE.
	if n.stateful {
		stage := &Stage{Kind: StagePE, Name: n.name, Ops: []*node{n}}
		stage.Downstream = planBranches(n.downstream, cfg)
		return stage
	}
	// Collect the maximal chain of stateless operators with linear
	// connectivity.
	run := []*node{n}
	cur := n
	for len(cur.downstream) == 1 {
		next := cur.downstream[0]
		if next.kind != nodeOp || next.stateful {
			break
		}
		run = append(run, next)
		cur = next
	}
	names := make([]string, len(run))
	for i, op := range run {
		names[i] = op.name
	}
	stage := &Stage{Name: strings.Join(names, "+"), Ops: run}
	if cfg.Width > 1 && len(run) >= cfg.MinRegionOps {
		stage.Kind = StageRegion
		stage.Width = cfg.Width
	} else {
		stage.Kind = StagePE
	}
	stage.Downstream = planBranches(cur.downstream, cfg)
	return stage
}

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %q\n", p.Graph.Name())
	for _, root := range p.Roots {
		renderStage(&b, root, 1)
	}
	return b.String()
}

func renderStage(b *strings.Builder, s *Stage, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	switch s.Kind {
	case StageSource:
		fmt.Fprintf(b, "source %s\n", s.Name)
	case StagePE:
		fmt.Fprintf(b, "pe     %s\n", s.Name)
	case StageRegion:
		fmt.Fprintf(b, "region %s x%d (ordered)\n", s.Name, s.Width)
	case StageSink:
		fmt.Fprintf(b, "sink   %s\n", s.Name)
	}
	for _, d := range s.Downstream {
		renderStage(b, d, depth+1)
	}
}

// Regions returns every data-parallel region in the plan, in depth-first
// order.
func (p *Plan) Regions() []*Stage {
	var out []*Stage
	var walk func(*Stage)
	walk = func(s *Stage) {
		if s.Kind == StageRegion {
			out = append(out, s)
		}
		for _, d := range s.Downstream {
			walk(d)
		}
	}
	for _, root := range p.Roots {
		walk(root)
	}
	return out
}
