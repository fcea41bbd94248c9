package dataflow

import (
	"errors"
	"fmt"

	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// nodeKind discriminates graph node types.
type nodeKind int

const (
	nodeSource nodeKind = iota + 1
	nodeOp
	nodeSink
)

// node is one vertex of the dataflow graph.
type node struct {
	name     string
	kind     nodeKind
	op       runtime.Operator
	src      runtime.Source
	sink     func(transport.Tuple)
	stateful bool
	// downstream edges; more than one means task parallelism (the same
	// tuples flow to every branch).
	downstream []*node
}

// Graph is a dataflow application under construction: sources, operators and
// sinks connected by streams. Construction errors are sticky and reported by
// Plan. Graph is not safe for concurrent construction.
type Graph struct {
	name  string
	nodes []*node
	err   error
}

// NewGraph returns an empty application graph.
func NewGraph(name string) *Graph {
	return &Graph{name: name}
}

// Name returns the application name.
func (g *Graph) Name() string { return g.name }

// fail records the first construction error.
func (g *Graph) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// addNode appends a node and returns it.
func (g *Graph) addNode(n *node) *node {
	g.nodes = append(g.nodes, n)
	return n
}

// Stream is the handle returned by graph-building calls; further operators
// attach to it.
type Stream struct {
	g    *Graph
	from *node
}

// Source adds a stream source to the graph: called with increasing seq, it
// returns the next payload, or ok=false at end of stream.
func (g *Graph) Source(name string, src runtime.Source) *Stream {
	if src == nil {
		g.fail(fmt.Errorf("dataflow: source %q has no function", name))
	}
	n := g.addNode(&node{name: name, kind: nodeSource, src: src})
	return &Stream{g: g, from: n}
}

// OpOption configures an operator.
type OpOption func(*node)

// Stateful marks the operator as stateful: it must not be replicated, so it
// bounds any data-parallel region.
func Stateful() OpOption {
	return func(n *node) { n.stateful = true }
}

// Map attaches an operator to the stream and returns the operator's output
// stream. Operators are stateless unless marked with Stateful(): the planner
// replicates a stateless operator, so one value serves several workers at
// once and its Process must be a pure function of its input (Section 2). No
// operator may write into its input payload — stages hand payloads on by
// reference, and the branches of a fan-out share one.
func (s *Stream) Map(name string, op runtime.Operator, opts ...OpOption) *Stream {
	if s == nil || s.from == nil {
		return s
	}
	if op == nil {
		s.g.fail(fmt.Errorf("dataflow: operator %q has no function", name))
	}
	n := s.g.addNode(&node{name: name, kind: nodeOp, op: op})
	for _, opt := range opts {
		opt(n)
	}
	s.from.downstream = append(s.from.downstream, n)
	return &Stream{g: s.g, from: n}
}

// Sink terminates the stream in a consumer, called with every tuple in
// stream order; like an operator, it must not write into the payload.
func (s *Stream) Sink(name string, fn func(transport.Tuple)) {
	if s == nil || s.from == nil {
		return
	}
	if fn == nil {
		s.g.fail(fmt.Errorf("dataflow: sink %q has no function", name))
	}
	n := s.g.addNode(&node{name: name, kind: nodeSink, sink: fn})
	s.from.downstream = append(s.from.downstream, n)
}

// validate checks structural invariants before planning.
func (g *Graph) validate() error {
	if g.err != nil {
		return g.err
	}
	if len(g.nodes) == 0 {
		return errors.New("dataflow: empty graph")
	}
	sources := 0
	for _, n := range g.nodes {
		switch n.kind {
		case nodeSource:
			sources++
			if len(n.downstream) == 0 {
				return fmt.Errorf("dataflow: source %q feeds nothing", n.name)
			}
		case nodeOp:
			if len(n.downstream) == 0 {
				return fmt.Errorf("dataflow: operator %q feeds nothing (add a sink)", n.name)
			}
		case nodeSink:
			if len(n.downstream) != 0 {
				return fmt.Errorf("dataflow: sink %q has downstream operators", n.name)
			}
		}
	}
	if sources == 0 {
		return errors.New("dataflow: graph has no source")
	}
	return nil
}
