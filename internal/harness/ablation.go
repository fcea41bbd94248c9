package harness

import (
	"fmt"
	"math"
	"strings"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/sim"
)

// ablation.go runs controlled comparisons of the design choices DESIGN.md
// calls out: the decay factor (the paper fixed 10% per iteration without
// justification), the treatment of zero-blocking intervals under drafting,
// clustering on/off at high fan-out, and the two exact RAP solvers.

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant         string
	ExecTime        time.Duration
	FinalThroughput float64
	MeanThroughput  float64
}

// AblationReport is a labelled set of variant outcomes.
type AblationReport struct {
	Title string
	Rows  []AblationRow
}

// String renders the comparison.
func (r AblationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	fmt.Fprintf(&b, "%-24s %14s %14s %14s\n", "variant", "exec-time", "final-tput/s", "mean-tput/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %14s %14.1f %14.1f\n",
			row.Variant, row.ExecTime.Truncate(time.Millisecond), row.FinalThroughput, row.MeanThroughput)
	}
	return b.String()
}

// Lookup returns the row for a variant.
func (r AblationReport) Lookup(variant string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.Variant == variant {
			return row, true
		}
	}
	return AblationRow{}, false
}

// ablationScenario is the shared workload: the Figure 8 (top) shape — three
// PEs, one at 100x, load removed partway — where both the convergence and
// the re-exploration behaviour matter.
func ablationScenario(duration time.Duration) ([]sim.HostSpec, []sim.PESpec) {
	hosts := HostsForPEs(3)
	pes := PlaceAcrossHosts(3, hosts, func(j int) sim.LoadSchedule {
		if j == 0 {
			return sim.StepLoad(100, 1, duration/4)
		}
		return sim.LoadSchedule{}
	})
	return hosts, pes
}

// runAblationVariant executes the shared workload under a configured policy.
func runAblationVariant(variant string, duration time.Duration, configure func() (sim.Policy, func() error, error)) (AblationRow, error) {
	hosts, pes := ablationScenario(duration)
	pol, finish, err := configure()
	if err != nil {
		return AblationRow{}, err
	}
	s, err := sim.New(sim.Config{
		Hosts:    hosts,
		PEs:      pes,
		BaseCost: 1000,
		Duration: duration,
		Policy:   pol,
	})
	if err != nil {
		return AblationRow{}, err
	}
	m, err := s.Run()
	if err != nil {
		return AblationRow{}, err
	}
	if err := finish(); err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Variant:         variant,
		ExecTime:        m.EndTime,
		FinalThroughput: m.FinalThroughput,
		MeanThroughput:  m.MeanThroughput,
	}, nil
}

// balancerVariant builds a BalancerPolicy configurator.
func balancerVariant(decayEnabled bool, decayFactor float64, mode core.ZeroTrustMode) func() (sim.Policy, func() error, error) {
	return func() (sim.Policy, func() error, error) {
		b, err := core.NewBalancer(core.Config{
			Connections:  3,
			DecayEnabled: decayEnabled,
			DecayFactor:  decayFactor,
			ZeroTrust:    mode,
		})
		if err != nil {
			return nil, nil, err
		}
		pol := sim.NewBalancerPolicy(b, "LB")
		return pol, pol.Err, nil
	}
}

// AblationDecay compares decay factors on the dynamic scenario. The paper's
// 0.9 per one-second iteration must recover after the load removal; no decay
// (LB-static) must not; extreme decay factors churn or adapt too slowly.
func AblationDecay(duration time.Duration) (AblationReport, error) {
	if duration <= 0 {
		duration = 240 * time.Second
	}
	report := AblationReport{Title: "Ablation: decay factor (load removed at 1/4)"}
	variants := []struct {
		name    string
		enabled bool
		factor  float64
	}{
		{"no-decay (LB-static)", false, 0},
		{"decay=0.70", true, 0.70},
		{"decay=0.90 (paper)", true, 0.90},
		{"decay=0.99", true, 0.99},
	}
	for _, v := range variants {
		row, err := runAblationVariant(v.name, duration, balancerVariant(v.enabled, v.factor, core.ZeroTrustScaled))
		if err != nil {
			return AblationReport{}, fmt.Errorf("harness: ablation decay %s: %w", v.name, err)
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// AblationZeroTrust compares the treatments of zero-blocking intervals
// (DESIGN.md section 4b) on the dynamic scenario.
func AblationZeroTrust(duration time.Duration) (AblationReport, error) {
	if duration <= 0 {
		duration = 240 * time.Second
	}
	report := AblationReport{Title: "Ablation: zero-observation trust (load removed at 1/4)"}
	variants := []struct {
		name string
		mode core.ZeroTrustMode
	}{
		{"scaled (default)", core.ZeroTrustScaled},
		{"ignore zeros", core.ZeroTrustNone},
		{"full-trust zeros", core.ZeroTrustFull},
	}
	for _, v := range variants {
		row, err := runAblationVariant(v.name, duration, balancerVariant(true, core.DefaultDecayFactor, v.mode))
		if err != nil {
			return AblationReport{}, fmt.Errorf("harness: ablation zero-trust %s: %w", v.name, err)
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}

// AblationClustering compares clustering on/off at 32 PEs on the Figure 13
// static workload, where pooling the sparse per-channel data is the point.
func AblationClustering(tuples uint64) (AblationReport, error) {
	if tuples == 0 {
		tuples = 120_000
	}
	report := AblationReport{Title: "Ablation: clustering at 32 PEs (base 60k, half 100x)"}
	for _, clustering := range []bool{true, false} {
		name := "clustering off"
		if clustering {
			name = "clustering on"
		}
		sc := sweepScenario("ablation-clustering", 32, 60_000, 100, false, tuples, clustering, heavyMultiplyTime)
		m, err := RunPolicy(sc, PolicyLBAdaptive)
		if err != nil {
			return AblationReport{}, fmt.Errorf("harness: ablation clustering: %w", err)
		}
		report.Rows = append(report.Rows, AblationRow{
			Variant:         name,
			ExecTime:        m.EndTime,
			FinalThroughput: m.FinalThroughput,
			MeanThroughput:  m.MeanThroughput,
		})
	}
	return report, nil
}

// SolverRow compares the two exact RAP solvers on one learned instance.
type SolverRow struct {
	Connections int
	Agree       bool
	FoxIters    int
	BisectIters int
}

// AblationSolver cross-checks SolveFox and SolveBisect on learned functions
// from a short run, reporting agreement and work counts.
func AblationSolver() ([]SolverRow, error) {
	var rows []SolverRow
	for _, n := range []int{4, 16, 64} {
		b, err := core.NewBalancer(core.Config{Connections: n})
		if err != nil {
			return nil, err
		}
		// Learn plausible functions from a synthetic capacity profile.
		for round := 0; round < 30; round++ {
			w := b.Weights()
			for j := 0; j < n; j++ {
				capUnits := 100 + 50*(j%5)
				rate := 0.0
				if over := w[j] - capUnits; over > 0 {
					rate = float64(over) * 0.01
				}
				if err := b.Observe(j, rate); err != nil {
					return nil, err
				}
			}
			if _, err := b.Rebalance(); err != nil {
				return nil, err
			}
		}
		funcs := make([]core.Func, n)
		for j := 0; j < n; j++ {
			funcs[j] = b.Func(j)
		}
		problem := core.Problem{Funcs: funcs, Total: core.DefaultUnits}
		fox, err := core.SolveFox(problem)
		if err != nil {
			return nil, err
		}
		bisect, err := core.SolveBisect(problem)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SolverRow{
			Connections: n,
			Agree:       math.Abs(fox.Objective-bisect.Objective) < 1e-9,
			FoxIters:    fox.Iterations,
			BisectIters: bisect.Iterations,
		})
	}
	return rows, nil
}

// RenderSolverRows formats the solver comparison.
func RenderSolverRows(rows []SolverRow) string {
	var b strings.Builder
	b.WriteString("== Ablation: Fox greedy vs value-space bisection ==\n")
	fmt.Fprintf(&b, "%12s %8s %12s %14s\n", "connections", "agree", "fox iters", "bisect probes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %8v %12d %14d\n", r.Connections, r.Agree, r.FoxIters, r.BisectIters)
	}
	return b.String()
}
