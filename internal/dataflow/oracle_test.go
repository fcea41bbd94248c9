package dataflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// oracleNode is one vertex of a random test tree: the source (newOp == nil)
// or an operator, with its operator children and whether a sink hangs off it.
type oracleNode struct {
	name     string
	newOp    func() runtime.Operator // fresh state per call; nil on the source
	stateful bool
	children []*oracleNode
	sink     bool
}

// tagOpFor's operator is stateless: it appends its tag and a checksum of what
// it was given, so the output names every operator the tuple crossed, in
// order.
func tagOpFor(tag byte) func() runtime.Operator {
	return func() runtime.Operator {
		return runtime.OperatorFunc(func(t transport.Tuple) transport.Tuple {
			var sum byte
			for _, b := range t.Payload {
				sum += b
			}
			p := make([]byte, 0, len(t.Payload)+2)
			p = append(append(p, t.Payload...), tag, sum)
			return transport.Tuple{Seq: t.Seq, Payload: p}
		})
	}
}

// chainHashOpFor's operator is stateful: it appends a running hash of every
// payload it has seen, so one reordered, lost or duplicated tuple upstream
// changes every later output.
func chainHashOpFor(tag byte) func() runtime.Operator {
	return func() runtime.Operator {
		acc := uint64(tag)
		return runtime.OperatorFunc(func(t transport.Tuple) transport.Tuple {
			for _, b := range t.Payload {
				acc = (acc ^ uint64(b)) * 1099511628211
			}
			acc = acc*31 + uint64(len(t.Payload))
			p := make([]byte, 0, len(t.Payload)+8)
			p = binary.LittleEndian.AppendUint64(append(p, t.Payload...), acc)
			return transport.Tuple{Seq: t.Seq, Payload: p}
		})
	}
}

// randomTree draws 1–6 operators (stateful ones at random positions) hung
// under a source with up to two fan-outs; every leaf gets a sink, and a
// leftover fan-out may hang a sink directly off an interior node or the
// source.
func randomTree(rng *rand.Rand) *oracleNode {
	root := &oracleNode{name: "src"}
	nodes := []*oracleNode{root}
	fanouts := rng.Intn(3)
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		nd := &oracleNode{name: fmt.Sprintf("op%d", i), newOp: tagOpFor(byte('a' + i))}
		if rng.Intn(3) == 0 {
			nd.stateful = true
			nd.newOp = chainHashOpFor(byte('A' + i))
		}
		var leaves []*oracleNode
		for _, c := range nodes {
			if len(c.children) == 0 {
				leaves = append(leaves, c)
			}
		}
		parent := leaves[rng.Intn(len(leaves))]
		if fanouts > 0 && rng.Intn(3) == 0 {
			if parent = nodes[rng.Intn(len(nodes))]; len(parent.children) > 0 {
				fanouts--
			}
		}
		parent.children = append(parent.children, nd)
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		nd.sink = len(nd.children) == 0
	}
	if fanouts > 0 && rng.Intn(2) == 0 {
		nodes[rng.Intn(len(nodes))].sink = true
	}
	return root
}

// TestExecuteMatchesSequential is the oracle for planned graphs: whatever the
// planner fuses, replicates or splits into stages, every sink must receive
// byte for byte what one goroutine applying the operators in order produces.
func TestExecuteMatchesSequential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tree := randomTree(rng)
		width := []int{1, 2, 8}[rng.Intn(3)]
		edgeCap := []int{1, 4, 0}[rng.Intn(3)]
		input := make([][]byte, 2000+rng.Intn(3001))
		for i := range input {
			input[i] = make([]byte, rng.Intn(17))
			rng.Read(input[i])
		}

		g := NewGraph(fmt.Sprintf("seed-%d", seed))
		want := make(map[string][][]byte)
		got := make(map[string]*[][]byte) // filled at build time; each sink appends to its own slice
		var build func(nd *oracleNode, s *Stream, in [][]byte)
		build = func(nd *oracleNode, s *Stream, in [][]byte) {
			out := in
			if nd.newOp != nil {
				var opts []OpOption
				if nd.stateful {
					opts = append(opts, Stateful())
				}
				s = s.Map(nd.name, nd.newOp(), opts...)
				seq := nd.newOp() // the oracle's own copy, with its own state
				out = make([][]byte, len(in))
				for i, p := range in {
					out[i] = seq.Process(transport.Tuple{Seq: uint64(i), Payload: p}).Payload
				}
			}
			if nd.sink {
				name := nd.name + ".sink"
				want[name] = out
				mine := new([][]byte)
				got[name] = mine
				s.Sink(name, func(tu transport.Tuple) {
					if tu.Seq != uint64(len(*mine)) {
						t.Errorf("seed %d: sink %s got seq %d at position %d", seed, name, tu.Seq, len(*mine))
					}
					*mine = append(*mine, tu.Payload)
				})
			}
			for _, c := range nd.children {
				build(c, s, out)
			}
		}
		build(tree, g.Source("src", func(seq uint64) ([]byte, bool) {
			if seq >= uint64(len(input)) {
				return nil, false
			}
			return input[seq], true
		}), input)

		p, err := g.Plan(PlanConfig{Width: width})
		if err != nil {
			t.Fatalf("seed %d: plan: %v", seed, err)
		}
		res, err := Execute(p, ExecConfig{ChainOptions: ChainOptions{EdgeCap: edgeCap}, SampleInterval: 5e6})
		if err != nil {
			t.Fatalf("seed %d: execute: %v\n%s", seed, err, p)
		}
		for name, exp := range want {
			if st := res.Sinks[name]; st.Count != uint64(len(exp)) || !st.Ordered {
				t.Fatalf("seed %d: sink %s stats %+v, want %d ordered\n%s", seed, name, st, len(exp), p)
			}
			have := *got[name]
			if len(have) != len(exp) {
				t.Fatalf("seed %d: sink %s got %d tuples, want %d\n%s", seed, name, len(have), len(exp), p)
			}
			for i := range exp {
				if !bytes.Equal(have[i], exp[i]) {
					t.Fatalf("seed %d (width %d, edge %d): sink %s tuple %d = %x, sequential run gives %x\n%s",
						seed, width, edgeCap, name, i, have[i], exp[i], p)
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}
