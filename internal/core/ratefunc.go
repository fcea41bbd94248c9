package core

import (
	"fmt"
	"math"
	"sort"
)

// DefaultUnits is R from the paper: allocation weights are discrete multiples
// of r = 0.1%, so the weight domain is 0..1000 and the full load is 1000
// units (Section 5.1, 5.2).
const DefaultUnits = 1000

// DefaultSmoothingAlpha is the EWMA factor used to fold new blocking-rate
// samples into a weight cell's existing raw value ("new data is collected and
// smoothed into the existing raw data", Section 5.1).
const DefaultSmoothingAlpha = 0.5

// rawCell holds the smoothed observed blocking rate at one allocation weight.
type rawCell struct {
	value float64 // EWMA-smoothed observed blocking rate
	count float64 // accumulated sample trust (used as regression weight)
}

// RateFunc is one connection's blocking-rate function F_j. The x-axis is the
// allocation weight in discrete units (0..Units); the y-axis is the blocking
// rate the connection experienced, or is predicted to experience, at that
// weight. Predictions are derived from the sparse raw observations in three
// steps, exactly as in Section 5.1: EWMA smoothing into per-weight cells
// (with (0,0) assumed), monotone regression over the observed cells, and
// linear interpolation / extrapolation for the missing cells.
//
// RateFunc is not safe for concurrent use.
type RateFunc struct {
	units   int
	alpha   float64
	raw     map[int]*rawCell
	maxSeen float64 // largest raw sample ever observed, for the zero flush

	pred  []float64 // cached prediction over 0..units, nil when dirty
	dirty bool

	// Rebuild scratch, reused across ticks so the steady-state control path
	// (observe → decay → rebuild on every controller sample) allocates
	// nothing once warm.
	scratchPts    []observedPoint
	scratchYs     []float64
	scratchWs     []float64
	scratchFit    []float64
	scratchBlocks []pavaBlock
}

// NewRateFunc returns an empty function over the weight domain 0..units.
// units <= 0 selects DefaultUnits; alpha outside (0,1] selects
// DefaultSmoothingAlpha.
func NewRateFunc(units int, alpha float64) *RateFunc {
	if units <= 0 {
		units = DefaultUnits
	}
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultSmoothingAlpha
	}
	return &RateFunc{
		units: units,
		alpha: alpha,
		raw:   make(map[int]*rawCell),
		dirty: true,
	}
}

// Units returns the size of the weight domain (R).
func (f *RateFunc) Units() int {
	return f.units
}

// Observe folds one blocking-rate sample taken while the connection held the
// given allocation weight. Negative rates are clamped to zero (the counter is
// cumulative, so a negative delta can only be a sampling artifact). Weights
// outside the domain return an error.
func (f *RateFunc) Observe(weight int, rate float64) error {
	return f.ObserveWeighted(weight, rate, 1)
}

// ObserveWeighted folds a sample with reduced trust in (0, 1]: the sample is
// smoothed in with an effective EWMA factor of alpha*trust and contributes
// trust to the cell's regression weight. The drafting phenomenon makes this
// necessary (Section 4.2): a connection that shows zero blocking while the
// splitter spent the interval blocked on a draft leader may merely have been
// shielded, so its zero carries little evidence; the controller scales the
// trust of zero observations by the fraction of the interval the splitter
// was not blocked elsewhere. Trust above 1 is clamped; non-positive trust is
// a no-op.
func (f *RateFunc) ObserveWeighted(weight int, rate, trust float64) error {
	if weight < 0 || weight > f.units {
		return fmt.Errorf("core: observation weight %d outside domain [0,%d]", weight, f.units)
	}
	if trust <= 0 {
		return nil
	}
	if trust > 1 {
		trust = 1
	}
	if rate < 0 {
		rate = 0
	}
	if rate > f.maxSeen {
		f.maxSeen = rate
	}
	effAlpha := f.alpha * trust
	cell, ok := f.raw[weight]
	if !ok {
		f.raw[weight] = &rawCell{value: rate, count: trust}
	} else {
		cell.value = f.flush(effAlpha*rate + (1-effAlpha)*cell.value)
		cell.count += trust
	}
	f.propagateConsistency(weight, rate, effAlpha)
	f.dirty = true
	return nil
}

// flush snaps values that have shrunk below a tiny fraction of the largest
// rate ever observed to exactly zero. EWMA smoothing and geometric decay
// approach zero only asymptotically; flushing lets a fully-unlearned cell
// become a true zero so the optimizer's tie handling can restore an even
// split across recovered connections instead of chasing vanishing residuals.
func (f *RateFunc) flush(v float64) float64 {
	if v < f.maxSeen*1e-9 {
		return 0
	}
	return v
}

// propagateConsistency reconciles stale cells with a fresh observation using
// the monotonicity tautology of Section 5.2: F is non-decreasing, so a rate r
// observed at weight w bounds every lower weight's rate from above and every
// higher weight's rate from below. Contradicted stale cells are smoothed
// toward the implied bound (without inflating their sample counts). Without
// this, cells recorded under a long-gone load level linger below the current
// weight where neither fresh samples nor the Section 5.4 decay (which only
// touches weights above the current allocation) can reach them, and the
// monotone regression pools their stale values into the tail — blocking the
// "slow climb" recovery the paper observes after load removal (Section 6.1).
func (f *RateFunc) propagateConsistency(weight int, rate, effAlpha float64) {
	for w, cell := range f.raw {
		switch {
		case w < weight && cell.value > rate:
			cell.value = f.flush(effAlpha*rate + (1-effAlpha)*cell.value)
		case w > weight && cell.value < rate:
			cell.value = effAlpha*rate + (1-effAlpha)*cell.value
		}
	}
}

// Decay applies the exploration mechanism of Section 5.4: every raw cell at a
// weight strictly greater than current is multiplied by factor (the paper
// reduces by a fixed 10%, i.e. factor 0.9). Repeated decay, combined with the
// monotone regression, flattens the function beyond the current allocation so
// the optimizer is induced to re-explore.
func (f *RateFunc) Decay(current int, factor float64) {
	if factor < 0 || factor >= 1 {
		return
	}
	changed := false
	for w, cell := range f.raw {
		if w > current && cell.value > 0 {
			cell.value = f.flush(cell.value * factor)
			changed = true
		}
	}
	if changed {
		f.dirty = true
	}
}

// SampleCount returns the accumulated observation trust folded into the
// function (a full-trust sample contributes 1).
func (f *RateFunc) SampleCount() float64 {
	n := 0.0
	for _, cell := range f.raw {
		n += cell.count
	}
	return n
}

// observedPoint is an observed (weight, value, count) triple for regression.
type observedPoint struct {
	weight int
	value  float64
	count  float64
}

// observed returns the raw cells sorted by weight, with the assumed (0,0)
// point included when no observation exists at weight 0. The returned slice
// is rebuild scratch, valid until the next call.
func (f *RateFunc) observed() []observedPoint {
	pts := f.scratchPts[:0]
	if _, ok := f.raw[0]; !ok {
		pts = append(pts, observedPoint{weight: 0, value: 0, count: 1})
	}
	for w, cell := range f.raw {
		pts = append(pts, observedPoint{weight: w, value: cell.value, count: cell.count})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].weight < pts[j].weight })
	f.scratchPts = pts
	return pts
}

// rebuild recomputes the cached prediction table.
func (f *RateFunc) rebuild() {
	pts := f.observed()
	ys, ws := f.scratchYs, f.scratchWs
	if cap(ys) < len(pts) {
		ys = make([]float64, len(pts))
		ws = make([]float64, len(pts))
	}
	ys, ws = ys[:len(pts)], ws[:len(pts)]
	for i, p := range pts {
		ys[i] = p.value
		ws[i] = p.count
	}
	f.scratchYs, f.scratchWs = ys, ws
	fit, blocks := monotoneRegressionInto(f.scratchFit, f.scratchBlocks, ys, ws)
	f.scratchFit, f.scratchBlocks = fit, blocks

	pred := f.pred
	if pred == nil {
		pred = make([]float64, f.units+1)
	}
	// Fill by linear interpolation between consecutive fitted points and
	// linear extrapolation beyond the last one (clamped non-negative).
	for seg := 0; seg < len(pts); seg++ {
		w0 := pts[seg].weight
		y0 := fit[seg]
		var w1 int
		var y1 float64
		if seg+1 < len(pts) {
			w1 = pts[seg+1].weight
			y1 = fit[seg+1]
		} else {
			// Extrapolate using the slope of the last segment, or flat
			// if there is only one point.
			w1 = f.units
			if w1 == w0 {
				pred[w0] = y0
				continue
			}
			slope := 0.0
			if seg > 0 && w0 > pts[seg-1].weight {
				slope = (y0 - fit[seg-1]) / float64(w0-pts[seg-1].weight)
			}
			y1 = y0 + slope*float64(w1-w0)
		}
		if w1 == w0 {
			pred[w0] = y0
			continue
		}
		for w := w0; w <= w1; w++ {
			t := float64(w-w0) / float64(w1-w0)
			v := y0 + t*(y1-y0)
			if v < 0 {
				v = 0
			}
			pred[w] = v
		}
	}
	// Defensive: guarantee the cache itself is non-decreasing even in the
	// face of floating-point wobble at segment joints.
	for w := 1; w <= f.units; w++ {
		if pred[w] < pred[w-1] {
			pred[w] = pred[w-1]
		}
	}
	f.pred = pred
	f.dirty = false
}

// Predict returns F(weight): the blocking rate the connection is predicted to
// experience at the given allocation weight. Out-of-domain weights are
// clamped. Predictions are non-negative and non-decreasing in weight.
func (f *RateFunc) Predict(weight int) float64 {
	if f.dirty {
		f.rebuild()
	}
	if weight < 0 {
		weight = 0
	}
	if weight > f.units {
		weight = f.units
	}
	return f.pred[weight]
}

// Eval implements the optimizer's Func interface.
func (f *RateFunc) Eval(weight int) float64 {
	return f.Predict(weight)
}

// Knee returns the service-rate knee w_s of Section 5.3: the smallest weight
// at which the predicted blocking rate is positive. A connection predicted to
// never block returns Units (it can absorb the full load).
func (f *RateFunc) Knee() int {
	if f.dirty {
		f.rebuild()
	}
	// Binary search: pred is non-decreasing.
	lo, hi := 0, f.units
	if f.pred[hi] <= 0 {
		return f.units
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if f.pred[mid] > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// RawCells returns a copy of the observed cells (weight → smoothed value and
// sample count). Clustering uses this to merge member data into a cluster
// function.
func (f *RateFunc) RawCells() map[int]RawCell {
	out := make(map[int]RawCell, len(f.raw))
	for w, cell := range f.raw {
		out[w] = RawCell{Value: cell.value, Count: cell.count}
	}
	return out
}

// RawCell is an exported view of one observed weight cell.
type RawCell struct {
	Value float64
	Count float64
}

// AbsorbCells folds another function's raw cells into this one, weighting by
// sample counts. It is used to build cluster functions that "incorporate all
// data from the individual connections in the cluster" (Section 5.3).
func (f *RateFunc) AbsorbCells(cells map[int]RawCell) {
	for w, c := range cells {
		if w < 0 || w > f.units || c.Count <= 0 {
			continue
		}
		cell, ok := f.raw[w]
		if !ok {
			f.raw[w] = &rawCell{value: c.Value, count: c.Count}
			continue
		}
		total := cell.count + c.Count
		cell.value = (cell.value*cell.count + c.Value*c.Count) / total
		cell.count = total
	}
	f.dirty = true
}

// Rescale moves every observation at weight w to weight w·k, for a
// connection whose service rate changed by the factor k: its blocking
// follows the load it is offered per unit of capacity, so what it showed at
// weight w before the change it shows at w·k after. Cells that land on one
// weight merge by sample count, in ascending order of their old weights;
// cells that land outside (0, Units] are dropped.
func (f *RateFunc) Rescale(k float64) {
	old := f.raw
	weights := make([]int, 0, len(old))
	for w := range old {
		weights = append(weights, w)
	}
	sort.Ints(weights)
	f.raw = make(map[int]*rawCell, len(old))
	for _, w := range weights {
		nw := int(math.Round(float64(w) * k))
		if nw < 1 || nw > f.units {
			continue
		}
		c := old[w]
		if cell, ok := f.raw[nw]; ok {
			total := cell.count + c.count
			cell.value = (cell.value*cell.count + c.value*c.count) / total
			cell.count = total
		} else {
			f.raw[nw] = c
		}
	}
	f.dirty = true
}

// ForgetAbove discards the observations at weights above w.
func (f *RateFunc) ForgetAbove(w int) {
	for x := range f.raw {
		if x > w {
			delete(f.raw, x)
			f.dirty = true
		}
	}
}

// Reset discards all observations.
func (f *RateFunc) Reset() {
	f.raw = make(map[int]*rawCell)
	f.maxSeen = 0
	f.dirty = true
}
