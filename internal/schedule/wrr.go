// Package schedule implements the weighted round-robin schedule the splitter
// uses to realize the allocation weights chosen by the load-balancing
// optimization. The paper's splitter distributes tuples by weighted
// round-robin with weights in units of 0.1% (Section 5.1); this package uses
// the smooth weighted round-robin algorithm so that a connection's picks (the
// runtime picks once per run of tuples) are spread evenly through each frame
// rather than bunched, which keeps the blocking signal per connection stable.
package schedule

import (
	"errors"
	"fmt"
)

// ErrNoConnections is returned when a schedule is constructed with no slots.
var ErrNoConnections = errors.New("schedule: at least one connection required")

// WRR is a smooth weighted round-robin scheduler over N connections. Each
// call to Next returns the index of the connection that should receive the
// next tuple. Over any window of total-weight consecutive picks, connection j
// is returned exactly weight_j times, and picks are interleaved as evenly as
// possible (the classic nginx smooth WRR property).
//
// WRR is not safe for concurrent use; the splitter owns it and applies
// weight updates between picks.
type WRR struct {
	weights []int
	current []int
	total   int
	// fallback cycles plainly over all connections when every weight is
	// zero, so the splitter never deadlocks on a degenerate weight vector.
	fallback int
	picks    int64
}

// NewWRR returns a scheduler over n connections with equal initial weights.
func NewWRR(n int) (*WRR, error) {
	if n <= 0 {
		return nil, ErrNoConnections
	}
	w := &WRR{
		weights: make([]int, n),
		current: make([]int, n),
	}
	for i := range w.weights {
		w.weights[i] = 1
	}
	w.total = n
	return w, nil
}

// N returns the number of connections.
func (w *WRR) N() int {
	return len(w.weights)
}

// SetWeights replaces the weight vector. Negative weights are an error, as is
// a vector of the wrong length. A connection with weight zero is never
// selected unless all weights are zero. The smooth-WRR accumulators are
// preserved for connections whose weight stays positive so that a weight
// update does not cause a burst.
func (w *WRR) SetWeights(weights []int) error {
	if len(weights) != len(w.weights) {
		return fmt.Errorf("schedule: got %d weights, want %d", len(weights), len(w.weights))
	}
	total := 0
	for i, wt := range weights {
		if wt < 0 {
			return fmt.Errorf("schedule: negative weight %d for connection %d", wt, i)
		}
		total += wt
	}
	for i, wt := range weights {
		w.weights[i] = wt
		if wt == 0 {
			w.current[i] = 0
		}
	}
	w.total = total
	return nil
}

// Weights returns a copy of the current weight vector.
func (w *WRR) Weights() []int {
	out := make([]int, len(w.weights))
	copy(out, w.weights)
	return out
}

// Picks returns how many scheduling decisions Next has made over the
// lifetime of this schedule (across weight updates and membership edits).
func (w *WRR) Picks() int64 {
	return w.picks
}

// Next returns the connection index that should receive the next tuple.
func (w *WRR) Next() int {
	w.picks++
	if w.total == 0 {
		idx := w.fallback
		w.fallback = (w.fallback + 1) % len(w.weights)
		return idx
	}
	best := -1
	for i := range w.weights {
		if w.weights[i] == 0 {
			continue
		}
		w.current[i] += w.weights[i]
		if best < 0 || w.current[i] > w.current[best] {
			best = i
		}
	}
	w.current[best] -= w.total
	return best
}

// Add appends a new connection slot with the given weight and returns its
// index. The new slot's accumulator starts at zero, so it is woven into the
// ongoing frame without causing a burst. Used when a restarted worker
// rejoins a region.
func (w *WRR) Add(weight int) (int, error) {
	if weight < 0 {
		return 0, fmt.Errorf("schedule: negative weight %d for new connection", weight)
	}
	w.weights = append(w.weights, weight)
	w.current = append(w.current, 0)
	w.total += weight
	return len(w.weights) - 1, nil
}

// Remove drops connection slot j (a failed worker); indices above j shift
// down by one, matching the caller's renumbering of its connection slice.
// The survivors keep their weights and accumulators, so traffic continues
// in proportion without a rebalance.
func (w *WRR) Remove(j int) error {
	if j < 0 || j >= len(w.weights) {
		return fmt.Errorf("schedule: connection %d out of range [0,%d)", j, len(w.weights))
	}
	if len(w.weights) == 1 {
		return errors.New("schedule: cannot remove the last connection")
	}
	w.total -= w.weights[j]
	w.weights = append(w.weights[:j], w.weights[j+1:]...)
	w.current = append(w.current[:j], w.current[j+1:]...)
	if w.fallback >= len(w.weights) {
		w.fallback = 0
	}
	return nil
}

// Reset zeroes the smooth-WRR accumulators so the next frame starts fresh.
func (w *WRR) Reset() {
	for i := range w.current {
		w.current[i] = 0
	}
	w.fallback = 0
}
