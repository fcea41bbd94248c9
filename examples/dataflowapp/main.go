// Dataflowapp: dataflow graph -> plan -> balanced execution. The application
// is described as a graph of operators; the planner decides what runs where:
// the two stateless operators ("featurize", "score") fuse into one ordered
// data-parallel region replicated four ways, and the stateful audit behind
// them becomes a single PE. dataflow.Execute lowers each planned stage onto
// an in-process runtime region, so the graph runs on the same splitter,
// merger and blocking-rate balancer as a hand-built region.
//
// The audit checks that transactions arrive in their original order and
// keeps a running total — both only right if the region's in-order merge
// restored sequential semantics.
//
//	go run ./examples/dataflowapp
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"streambalance/internal/dataflow"
	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

const transactions = 30_000

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// featurize turns a raw transaction record (id, amount) into a feature record
// (id, amount, feature). Stateless, so it parallelizes freely.
func featurize(t transport.Tuple) transport.Tuple {
	out := make([]byte, 24)
	copy(out, t.Payload[:16])
	amount := binary.LittleEndian.Uint64(t.Payload[8:16])
	binary.LittleEndian.PutUint64(out[16:24], amount*31)
	return transport.Tuple{Seq: t.Seq, Payload: out}
}

// score runs the deliberately expensive scoring kernel over the feature — the
// graph's bottleneck. Like every operator it returns a fresh payload rather
// than writing into its input.
func score(t transport.Tuple) transport.Tuple {
	acc := binary.LittleEndian.Uint64(t.Payload[16:24]) | 3
	for i := 0; i < 3000; i++ {
		acc = acc*1664525 + 1013904223
	}
	out := make([]byte, 24)
	copy(out, t.Payload[:16])
	binary.LittleEndian.PutUint64(out[16:24], acc)
	return transport.Tuple{Seq: t.Seq, Payload: out}
}

func run() error {
	// The stateful audit bounds the region: it requires transactions in
	// their original order, which the region's in-order merge delivers.
	total := uint64(0)
	lastID := int64(-1)
	ordered := true
	audit := func(t transport.Tuple) transport.Tuple {
		id := int64(binary.LittleEndian.Uint64(t.Payload[0:8]))
		if id != lastID+1 {
			ordered = false
		}
		lastID = id
		total += binary.LittleEndian.Uint64(t.Payload[8:16])
		return transport.Tuple{Seq: t.Seq, Payload: binary.LittleEndian.AppendUint64(nil, total)}
	}
	consumed := 0

	g := dataflow.NewGraph("dataflowapp")
	g.Source("transactions", func(seq uint64) ([]byte, bool) {
		if seq >= transactions {
			return nil, false
		}
		p := make([]byte, 16)
		binary.LittleEndian.PutUint64(p[0:8], seq)
		binary.LittleEndian.PutUint64(p[8:16], seq%997+1)
		return p, true
	}).
		Map("featurize", runtime.OperatorFunc(featurize)).
		Map("score", runtime.OperatorFunc(score)).
		Map("audit", runtime.OperatorFunc(audit), dataflow.Stateful()).
		Sink("ledger", func(transport.Tuple) { consumed++ })

	plan, err := g.Plan(dataflow.PlanConfig{Width: 4})
	if err != nil {
		return err
	}
	fmt.Print(plan.String())

	res, err := dataflow.Execute(plan, dataflow.ExecConfig{})
	if err != nil {
		return err
	}

	fmt.Printf("\nprocessed %d transactions in %v\n", consumed, res.Elapsed.Truncate(1e6))
	fmt.Printf("stateful audit saw original order: %v\n", ordered)
	wantTotal := uint64(0)
	for i := uint64(0); i < transactions; i++ {
		wantTotal += i%997 + 1
	}
	fmt.Printf("running total correct: %v (%d)\n", total == wantTotal, total)
	for _, r := range res.Regions {
		fmt.Printf("region %s x%d: processed %v, final weights %v\n", r.Name, r.Width, r.Processed, r.FinalWeights)
	}
	if !ordered || total != wantTotal || consumed != transactions {
		return fmt.Errorf("graph produced wrong output: ordered=%v total=%d consumed=%d", ordered, total, consumed)
	}
	return nil
}
