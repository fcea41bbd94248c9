package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// DefaultDecayFactor is the geometric reduction applied to predictions beyond
// the current weight each balancing iteration; the paper chose a fixed 10%
// reduction (Section 5.4).
const DefaultDecayFactor = 0.9

// clusterThreshold is the complete-linkage merge threshold for the
// clustering step. Distances are absolute log-ratios, so a threshold of 0.7
// merges connections whose knees (service rates) are within roughly a factor
// of two of each other — comfortably separating the paper's 1x / 5x / 100x
// load classes.
const clusterThreshold = 0.7

// clusterMinConns is the fan-out at which clustering turns on. The paper's
// local scheme works well up to 16 connections and clustering "only becomes
// necessary as the number of channels scales to 32 and higher" (Section
// 6.6).
const clusterMinConns = 32

// ZeroTrustMode selects how Step treats a connection that logged no blocking
// in an interval. The default, ZeroTrustScaled, is the repository's
// calibrated choice (DESIGN.md section 4b); the other modes exist for the
// ablation experiments that justify it.
type ZeroTrustMode int

const (
	// ZeroTrustScaled folds zeros in with trust 1 - (blocked fraction of
	// the interval): a zero means spare capacity only to the extent the
	// splitter was actually offering tuples.
	ZeroTrustScaled ZeroTrustMode = iota
	// ZeroTrustNone ignores zero intervals entirely (the strictest reading
	// of Section 5.1's "only a single new data value").
	ZeroTrustNone
	// ZeroTrustFull folds every zero in at full trust, as if drafting did
	// not exist.
	ZeroTrustFull
)

// minZeroTrust is the trust below which a zero is dropped rather than folded
// in: the splitter spent over 99% of the interval blocked elsewhere.
const minZeroTrust = 0.01

// A change point is a connection whose measured service rate μ_j (Step's
// optional input) lies outside [ref/changeFactor, ref·changeFactor] of its
// smoothed reference ref in changeIntervals consecutive valid intervals. The
// runtime counts an interval for a connection only if the splitter waited on
// its credit for half of it, so every valid μ_j is between half and all of
// the worker's true rate, and so is ref, which folds each in-band sample in
// at half weight: 2 is the least factor such readings cannot cross without a
// change. It also clears noise: under ±20 % noise around a steady rate the
// sample and the reference stay within 1.2/0.8 = 1.5 of each other. A change
// is certain to cross it only past 4×, but a worker that holds the splitter
// most of an interval reads within a few percent of its rate (8.2 k tuples/s
// against 8.33 k on hetero_shift), so the Section 6 shifts are caught: 3× on
// that bench, 5× and 100× in the paper's load classes. One interval can
// still misread (a worker paused by its host); two in a row are a shift, for
// one interval of delay.
const (
	changeFactor    = 2.0
	changeIntervals = 2
)

// serviceRef is one connection's change-point detector over its measured
// service rates.
type serviceRef struct {
	ref float64 // smoothed service rate in tuples/s, 0 before any sample
	off int     // consecutive valid samples outside the band around ref
}

// observe folds one valid service-rate sample in and reports a change point.
// An out-of-band sample leaves ref alone; at a change point ref restarts from
// the sample.
func (s *serviceRef) observe(mu float64) bool {
	if s.ref == 0 {
		s.ref = mu
		return false
	}
	if mu > s.ref*changeFactor || mu*changeFactor < s.ref {
		if s.off++; s.off >= changeIntervals {
			s.ref, s.off = mu, 0
			return true
		}
		return false
	}
	s.ref, s.off = (s.ref+mu)/2, 0
	return false
}

// Config parameterizes a Balancer. The zero value is not usable: Connections
// must be positive. Every other field has a working default.
type Config struct {
	// Connections is the number of parallel channels N.
	Connections int
	// Units is R, the number of discrete resource units (default 1000).
	Units int
	// SmoothingAlpha is the EWMA factor for folding samples into weight
	// cells (default DefaultSmoothingAlpha).
	SmoothingAlpha float64
	// DecayEnabled selects LB-adaptive (true) versus LB-static (false)
	// behaviour: whether predictions beyond the current weight decay each
	// iteration to encourage re-exploration.
	DecayEnabled bool
	// DecayFactor is the per-iteration multiplier for decayed cells
	// (default DefaultDecayFactor).
	DecayFactor float64
	// MaxStep, when positive, bounds how far any connection's weight may
	// move in a single rebalance (the paper's incremental min/max change
	// constraints). Zero means unbounded.
	MaxStep int
	// ClusterEnabled turns on the Section 5.3 clustering pipeline when the
	// fan-out is at least 32 connections (Section 6.6).
	ClusterEnabled bool
	// ZeroTrust selects how Step folds in zero-blocking intervals (default
	// ZeroTrustScaled).
	ZeroTrust ZeroTrustMode
}

// withDefaults returns a copy of the config with defaults filled in.
func (c Config) withDefaults() Config {
	if c.Units <= 0 {
		c.Units = DefaultUnits
	}
	if c.SmoothingAlpha <= 0 || c.SmoothingAlpha > 1 {
		c.SmoothingAlpha = DefaultSmoothingAlpha
	}
	if c.DecayFactor <= 0 || c.DecayFactor >= 1 {
		c.DecayFactor = DefaultDecayFactor
	}
	return c
}

// Balancer is the paper's local load balancer for one parallel region. It
// owns one blocking-rate function per connection, consumes blocking-rate
// observations, and on each Rebalance emits a fresh allocation-weight vector
// summing exactly to Units. Balancer is not safe for concurrent use; the
// splitter thread that samples the transport owns it.
type Balancer struct {
	cfg       Config
	funcs     []*RateFunc
	svc       []serviceRef // per connection, beside funcs
	changed   []int        // connections with a change point in the last Step
	weights   []int
	clusters  [][]int // partition used by the last rebalance (nil if unclustered)
	lastObj   float64
	lastIters int
	rounds    int
}

// NewBalancer validates the config and returns a balancer with an even
// initial weight distribution.
func NewBalancer(cfg Config) (*Balancer, error) {
	if cfg.Connections <= 0 {
		return nil, errors.New("core: config needs at least one connection")
	}
	cfg = cfg.withDefaults()
	b := &Balancer{
		cfg:     cfg,
		funcs:   make([]*RateFunc, cfg.Connections),
		svc:     make([]serviceRef, cfg.Connections),
		weights: EvenWeights(cfg.Connections, cfg.Units),
	}
	for j := range b.funcs {
		b.funcs[j] = NewRateFunc(cfg.Units, cfg.SmoothingAlpha)
	}
	return b, nil
}

// EvenWeights returns the most even integer split of units across n
// connections (earlier connections receive the remainder units).
func EvenWeights(n, units int) []int {
	weights := make([]int, n)
	if n == 0 {
		return weights
	}
	base := units / n
	rem := units % n
	for j := range weights {
		weights[j] = base
		if j < rem {
			weights[j]++
		}
	}
	return weights
}

// Weights returns a copy of the current allocation weights.
func (b *Balancer) Weights() []int {
	out := make([]int, len(b.weights))
	copy(out, b.weights)
	return out
}

// Connections returns the fan-out N.
func (b *Balancer) Connections() int {
	return b.cfg.Connections
}

// Units returns R.
func (b *Balancer) Units() int {
	return b.cfg.Units
}

// Func exposes connection j's rate function for inspection (tests, plots).
// The returned function is live; callers must not mutate it.
func (b *Balancer) Func(j int) *RateFunc {
	return b.funcs[j]
}

// Observe records a blocking-rate sample for a connection, attributed to the
// connection's current allocation weight (the weight in force while the
// sample accumulated).
func (b *Balancer) Observe(conn int, rate float64) error {
	return b.ObserveWeighted(conn, rate, 1)
}

// ObserveWeighted records a sample with reduced trust in (0, 1]; see
// RateFunc.ObserveWeighted. Step uses partial trust for zero observations
// taken while the splitter was blocked on a draft leader.
func (b *Balancer) ObserveWeighted(conn int, rate, trust float64) error {
	if conn < 0 || conn >= len(b.funcs) {
		return fmt.Errorf("core: connection %d out of range [0,%d)", conn, len(b.funcs))
	}
	return b.funcs[conn].ObserveWeighted(b.weights[conn], rate, trust)
}

// ObserveAt records a blocking-rate sample at an explicit weight, for callers
// that track historical weights themselves.
func (b *Balancer) ObserveAt(conn, weight int, rate float64) error {
	if conn < 0 || conn >= len(b.funcs) {
		return fmt.Errorf("core: connection %d out of range [0,%d)", conn, len(b.funcs))
	}
	return b.funcs[conn].Observe(weight, rate)
}

// LastObjective returns the objective value (max predicted blocking rate) of
// the most recent rebalance.
func (b *Balancer) LastObjective() float64 {
	return b.lastObj
}

// LastIterations returns how many optimizer iterations the most recent
// rebalance took — the metrics layer exports it so solver cost is visible
// alongside the decisions it produces.
func (b *Balancer) LastIterations() int {
	return b.lastIters
}

// LastClusters returns the partition used by the most recent rebalance, or
// nil if clustering was not applied. The outer slice is ordered by smallest
// member index; experiment heat maps key on it.
func (b *Balancer) LastClusters() [][]int {
	if b.clusters == nil {
		return nil
	}
	out := make([][]int, len(b.clusters))
	for i, c := range b.clusters {
		out[i] = append([]int(nil), c...)
	}
	return out
}

// ServiceRate returns connection j's smoothed service rate in tuples/s, the
// reference its change points are judged against: 0 before Step has seen a
// valid sample for it.
func (b *Balancer) ServiceRate(j int) float64 {
	return b.svc[j].ref
}

// ChangePoints returns the connections that had a change point in the last
// Step, ascending (nil when none had).
func (b *Balancer) ChangePoints() []int {
	return b.changed
}

// Rounds returns how many rebalances have run.
func (b *Balancer) Rounds() int {
	return b.rounds
}

// Step is one collection interval of the controller, the same on every
// substrate: rates holds each connection's blocking rate (seconds blocked per
// second) over the interval just ended. Connections that blocked contribute
// full-trust samples — usually just one per interval, as the paper observes
// (Section 5.1). A zero from a quiet connection is evidence of spare capacity
// only to the extent the splitter was actually offering it tuples: while the
// single splitter thread sat blocked on a draft leader the other connections
// were shielded (Section 4.2), so under ZeroTrustScaled their zeros are folded
// in with trust equal to the fraction of the interval the splitter was not
// blocked anywhere, and dropped when that is under 1%. Step then rebalances
// and returns the new weights.
//
// service, when non-nil, holds each connection's service rate μ_j in
// tuples/s measured over the same interval, or 0 where the interval gave no
// valid measurement. Each valid μ_j feeds that connection's change-point
// detector (changeFactor). At a change point F_j is history taken at another
// service rate, so it is moved onto the new one (RateFunc.Rescale by the
// ratio of the new rate to the reference); every other connection forgets
// its cells above its current weight, so a worker that sped up without
// being measured (it is under-loaded, so it has no valid μ) is re-explored
// at once instead of after some twenty decays. This interval's samples are
// then folded in and the solver re-places every weight: μ only says when
// and by how much the history is stale, the weights still come from the
// blocking rates. A nil service, or one with no positive entry, is the
// paper's Step exactly.
func (b *Balancer) Step(rates, service []float64) ([]int, error) {
	if len(rates) != len(b.funcs) {
		return nil, fmt.Errorf("core: %d rates for %d connections", len(rates), len(b.funcs))
	}
	if service != nil && len(service) != len(rates) {
		return nil, fmt.Errorf("core: %d service rates for %d connections", len(service), len(rates))
	}
	b.changed = nil
	for j, mu := range service {
		if ref := b.svc[j].ref; mu > 0 && b.svc[j].observe(mu) {
			b.changed = append(b.changed, j)
			b.funcs[j].Rescale(mu / ref)
		}
	}
	if b.changed != nil {
		for j, f := range b.funcs {
			if !slices.Contains(b.changed, j) {
				f.ForgetAbove(b.weights[j])
			}
		}
	}
	blockedFraction := 0.0
	for _, r := range rates {
		blockedFraction += r
	}
	zeroTrust := 1 - min(1, blockedFraction)
	for j, r := range rates {
		trust := 1.0
		if r <= 0 {
			switch b.cfg.ZeroTrust {
			case ZeroTrustNone:
				continue
			case ZeroTrustFull:
			default:
				if trust = zeroTrust; trust < minZeroTrust {
					continue
				}
			}
		}
		if err := b.ObserveWeighted(j, r, trust); err != nil {
			return nil, fmt.Errorf("observe conn %d: %w", j, err)
		}
	}
	return b.Rebalance()
}

// Rebalance runs one iteration of the Figure 4 / Figure 6 pipeline: decay
// stale predictions (LB-adaptive), optionally cluster the functions, solve
// the minimax RAP, and install the new weights. It returns a copy of the new
// weight vector.
func (b *Balancer) Rebalance() ([]int, error) {
	b.rounds++
	if b.cfg.DecayEnabled {
		for j, f := range b.funcs {
			f.Decay(b.weights[j], b.cfg.DecayFactor)
		}
	}

	mins, maxs := b.iterationBounds()
	var sol Solution
	var err error
	if b.cfg.ClusterEnabled && b.cfg.Connections >= clusterMinConns {
		sol, err = b.solveClustered(mins, maxs)
	} else {
		b.clusters = nil
		sol, err = b.solveDirect(mins, maxs)
	}
	if err != nil {
		return nil, err
	}
	copy(b.weights, sol.Weights)
	b.lastObj = sol.Objective
	b.lastIters = sol.Iterations
	return b.Weights(), nil
}

// iterationBounds returns each connection's weight window for this
// iteration: [0, Units], narrowed by MaxStep around the current weight. The
// current weights sum to Units, so the windows always admit a solution.
func (b *Balancer) iterationBounds() (mins, maxs []int) {
	n := b.cfg.Connections
	mins = make([]int, n)
	maxs = make([]int, n)
	for j := 0; j < n; j++ {
		lo, hi := 0, b.cfg.Units
		if b.cfg.MaxStep > 0 {
			lo = max(lo, b.weights[j]-b.cfg.MaxStep)
			hi = min(hi, b.weights[j]+b.cfg.MaxStep)
		}
		mins[j], maxs[j] = lo, hi
	}
	return mins, maxs
}

// solveDirect runs the optimizer over the raw per-connection functions.
func (b *Balancer) solveDirect(mins, maxs []int) (Solution, error) {
	funcs := make([]Func, len(b.funcs))
	for j, f := range b.funcs {
		funcs[j] = f
	}
	return SolveFox(Problem{Funcs: funcs, Total: b.cfg.Units, Min: mins, Max: maxs})
}

// clusterFunc adapts a pooled cluster function of size members to the
// optimizer: a cluster holding total weight W spreads it evenly, so its
// blocking is the member function evaluated at W/size.
type clusterFunc struct {
	merged *RateFunc
	size   int
}

func (c clusterFunc) Eval(weight int) float64 {
	per := int(math.Round(float64(weight) / float64(c.size)))
	return c.merged.Predict(per)
}

// solveClustered runs the Section 5.3 pipeline: summarize, cluster, pool
// member data, solve the reduced problem, and re-divide cluster weights
// evenly among members.
func (b *Balancer) solveClustered(mins, maxs []int) (Solution, error) {
	n := b.cfg.Connections
	alpha := Alpha(b.cfg.Units)
	summaries := make([]FuncSummary, n)
	for j, f := range b.funcs {
		summaries[j] = Summarize(f)
	}
	dist := func(i, j int) float64 {
		return Distance(summaries[i], summaries[j], alpha)
	}
	clusters := Agglomerate(n, dist, clusterThreshold)
	b.clusters = clusters

	k := len(clusters)
	funcs := make([]Func, k)
	cmins := make([]int, k)
	cmaxs := make([]int, k)
	for ci, members := range clusters {
		memberFuncs := make([]*RateFunc, len(members))
		for mi, j := range members {
			memberFuncs[mi] = b.funcs[j]
			cmins[ci] += mins[j]
			cmaxs[ci] += maxs[j]
		}
		if cmaxs[ci] > b.cfg.Units {
			cmaxs[ci] = b.cfg.Units
		}
		funcs[ci] = clusterFunc{
			merged: MergeFuncs(memberFuncs, b.cfg.Units, b.cfg.SmoothingAlpha),
			size:   len(members),
		}
	}
	sol, err := SolveFox(Problem{Funcs: funcs, Total: b.cfg.Units, Min: cmins, Max: cmaxs})
	if err != nil {
		return Solution{}, fmt.Errorf("clustered solve: %w", err)
	}

	// Re-divide each cluster's weight evenly among members, clamped to the
	// member bounds; any units the clamp displaces go to members with room.
	weights := make([]int, n)
	for ci, members := range clusters {
		share := EvenWeights(len(members), sol.Weights[ci])
		leftover := 0
		for mi, j := range members {
			w := share[mi]
			if w < mins[j] {
				leftover -= mins[j] - w
				w = mins[j]
			}
			if w > maxs[j] {
				leftover += w - maxs[j]
				w = maxs[j]
			}
			weights[j] = w
		}
		for _, j := range members {
			if leftover == 0 {
				break
			}
			if leftover > 0 {
				if room := maxs[j] - weights[j]; room > 0 {
					add := leftover
					if add > room {
						add = room
					}
					weights[j] += add
					leftover -= add
				}
			} else {
				if room := weights[j] - mins[j]; room > 0 {
					sub := -leftover
					if sub > room {
						sub = room
					}
					weights[j] -= sub
					leftover += sub
				}
			}
		}
	}
	return Solution{Weights: weights, Objective: objective(funcsOf(b.funcs), weights), Iterations: sol.Iterations}, nil
}

// funcsOf converts a RateFunc slice to the optimizer's interface slice.
func funcsOf(fs []*RateFunc) []Func {
	out := make([]Func, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}
