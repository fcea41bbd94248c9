package core

import (
	"fmt"
	"sort"
)

// elastic.go lets a region grow and shrink at runtime. The paper treats the
// worker set as fixed; real deployments scale parallel regions elastically,
// and the model extends naturally: a new connection starts with an empty
// function (predicting zero blocking everywhere), so the next rebalance
// explores it aggressively and the usual learning loop takes over; a removed
// connection's weight is folded back into the remainder immediately so the
// splitter never routes to a dead worker.

// AddConnection appends a new connection with an empty blocking-rate
// function and zero current weight, returning its index. Call Rebalance
// afterwards to assign it traffic.
func (b *Balancer) AddConnection() int {
	j := b.cfg.Connections
	b.cfg.Connections++
	b.funcs = append(b.funcs, NewRateFunc(b.cfg.Units, b.cfg.SmoothingAlpha))
	b.svc = append(b.svc, serviceRef{})
	b.weights = append(b.weights, 0)
	b.clusters = nil
	return j
}

// RemoveConnection removes connection j (a departed or failed worker). Its
// current weight is redistributed across the remaining connections in
// proportion to their weights (evenly when all are zero), so the weight
// vector still sums to Units without waiting for the next rebalance.
// Connection indices above j shift down by one, matching the caller's
// renumbering of its connection slice.
func (b *Balancer) RemoveConnection(j int) error {
	if b.cfg.Connections <= 1 {
		return fmt.Errorf("core: cannot remove the last connection")
	}
	if j < 0 || j >= b.cfg.Connections {
		return fmt.Errorf("core: connection %d out of range [0,%d)", j, b.cfg.Connections)
	}
	freed := b.weights[j]
	b.funcs = append(b.funcs[:j], b.funcs[j+1:]...)
	b.svc = append(b.svc[:j], b.svc[j+1:]...)
	b.weights = append(b.weights[:j], b.weights[j+1:]...)
	b.cfg.Connections--
	b.clusters = nil

	// Redistribute the freed units proportionally, remainder to the
	// largest holders first for determinism.
	total := 0
	for _, w := range b.weights {
		total += w
	}
	if freed == 0 {
		return nil
	}
	if total == 0 {
		even := EvenWeights(len(b.weights), freed)
		for i := range b.weights {
			b.weights[i] += even[i]
		}
		return nil
	}
	assigned := 0
	shares := make([]int, len(b.weights))
	for i, w := range b.weights {
		shares[i] = freed * w / total
		assigned += shares[i]
	}
	// Hand the rounding remainder out one unit at a time, largest current
	// holders first (ties by index), for a deterministic result.
	order := make([]int, len(b.weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		return b.weights[order[a]] > b.weights[order[c]]
	})
	for k := 0; assigned < freed; k++ {
		shares[order[k%len(order)]]++
		assigned++
	}
	for i, extra := range shares {
		b.weights[i] += extra
	}
	return nil
}
