package dataflow_test

import (
	"encoding/binary"
	"fmt"

	"streambalance/internal/dataflow"
	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// Example builds a pipeline with one stateless stage — which the planner
// parallelizes into an ordered region — and a stateful stage that relies on
// seeing tuples in order.
func Example() {
	g := dataflow.NewGraph("demo")
	// Operators return a fresh payload: the input is not theirs to write.
	mapU64 := func(f func(uint64) uint64) runtime.Operator {
		return runtime.OperatorFunc(func(t transport.Tuple) transport.Tuple {
			v := f(binary.LittleEndian.Uint64(t.Payload))
			return transport.Tuple{Seq: t.Seq, Payload: binary.LittleEndian.AppendUint64(nil, v)}
		})
	}
	var sum uint64
	g.Source("numbers", func(seq uint64) ([]byte, bool) {
		if seq >= 1000 {
			return nil, false
		}
		return binary.LittleEndian.AppendUint64(nil, seq), true
	}).
		Map("triple", mapU64(func(v uint64) uint64 { return v * 3 })).
		Map("sum", mapU64(func(v uint64) uint64 {
			sum += v
			return sum
		}), dataflow.Stateful()).
		Sink("out", func(transport.Tuple) {})

	plan, err := g.Plan(dataflow.PlanConfig{Width: 4})
	if err != nil {
		panic(err)
	}
	fmt.Print(plan.String())

	res, err := dataflow.Execute(plan, dataflow.ExecConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println("ordered:", res.Sinks["out"].Ordered)
	fmt.Println("sum:", sum)
	// Output:
	// plan "demo"
	//   source numbers
	//     region triple x4 (ordered)
	//       pe     sum
	//         sink   out
	// ordered: true
	// sum: 1498500
}
