package sim

import (
	"fmt"
	"sort"
	"time"

	"streambalance/internal/core"
)

// Policy decides allocation weights from periodically sampled per-connection
// blocking rates. Implementations receive one callback per collection
// interval and return either a fresh weight vector (in units summing to the
// configured total) or nil to leave the current weights unchanged.
type Policy interface {
	// Name labels the policy in experiment reports.
	Name() string
	// OnSample consumes this interval's snapshot — most importantly the
	// per-connection blocking rates (seconds blocked per second) — and may
	// return new weights.
	OnSample(sn Snapshot) []int
}

// RoundRobin is the paper's RR baseline: a fixed even split, never adjusted.
type RoundRobin struct{}

var _ Policy = RoundRobin{}

// Name implements Policy.
func (RoundRobin) Name() string { return "RR" }

// OnSample implements Policy; it never changes the weights.
func (RoundRobin) OnSample(Snapshot) []int { return nil }

// BalancerPolicy adapts core.Balancer to the simulator: LB-static when the
// balancer's decay is disabled, LB-adaptive when enabled.
type BalancerPolicy struct {
	balancer *Balancer
	label    string
	err      error
}

// Balancer aliases core.Balancer so harness code can stay within sim's
// vocabulary when constructing policies.
type Balancer = core.Balancer

// NewBalancerPolicy wraps a balancer. label is usually "LB-static" or
// "LB-adaptive"; an empty label derives one from the balancer's decay mode.
func NewBalancerPolicy(b *core.Balancer, label string) *BalancerPolicy {
	if label == "" {
		label = "LB"
	}
	return &BalancerPolicy{balancer: b, label: label}
}

var _ Policy = (*BalancerPolicy)(nil)

// Name implements Policy.
func (p *BalancerPolicy) Name() string { return p.label }

// Balancer returns the wrapped model, e.g. for cluster heat maps.
func (p *BalancerPolicy) Balancer() *core.Balancer { return p.balancer }

// Err returns the first error the balancer reported, if any. The simulator's
// controller cannot fail a run mid-flight, so errors are surfaced here and
// checked by the harness after the run.
func (p *BalancerPolicy) Err() error { return p.err }

// OnSample implements Policy: one core.Balancer.Step over the interval's
// blocking rates — the step the runtime's splitter takes on its own ticks.
func (p *BalancerPolicy) OnSample(sn Snapshot) []int {
	if p.err != nil {
		return nil
	}
	weights, err := p.balancer.Step(sn.BlockingRates, nil)
	if err != nil {
		p.err = fmt.Errorf("step at %v: %w", sn.Now, err)
		return nil
	}
	return weights
}

// WeightPhase is one segment of an oracle schedule: the splitter uses
// Weights from virtual time From onward, or — when FromTuples is nonzero —
// from the moment that many tuples have been released, matching a load
// switch defined in work rather than time.
type WeightPhase struct {
	From       time.Duration
	FromTuples uint64
	Weights    []int
}

// OracleSchedule is the paper's Oracle* baseline: the best static
// distribution for each load phase, derived offline, switched exactly when
// the load changes. As the paper notes, switching exactly at the load change
// is actually slightly too early — tuples already queued still carry the old
// cost — which is why Oracle* can be beaten by LB-adaptive (Section 6.3).
type OracleSchedule struct {
	phases []WeightPhase
	label  string
}

var _ Policy = (*OracleSchedule)(nil)

// NewOracleSchedule builds an oracle policy from weight phases (sorted by
// start time).
func NewOracleSchedule(phases []WeightPhase, label string) *OracleSchedule {
	if label == "" {
		label = "Oracle*"
	}
	sorted := make([]WeightPhase, len(phases))
	copy(sorted, phases)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].From < sorted[j].From })
	return &OracleSchedule{phases: sorted, label: label}
}

// Name implements Policy.
func (o *OracleSchedule) Name() string { return o.label }

// OnSample implements Policy: it returns the weights of the latest phase
// whose trigger (time or completed tuples) has been reached.
func (o *OracleSchedule) OnSample(sn Snapshot) []int {
	var current []int
	for _, p := range o.phases {
		if p.FromTuples > 0 {
			if sn.Completed >= p.FromTuples {
				current = p.Weights
			}
			continue
		}
		if p.From > sn.Now {
			break
		}
		current = p.Weights
	}
	return current
}
