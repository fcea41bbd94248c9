package core

import (
	"math"
	"testing"
)

func TestNewBalancerValidation(t *testing.T) {
	if _, err := NewBalancer(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestEvenWeights(t *testing.T) {
	tests := []struct {
		n, units int
		want     []int
	}{
		{1, 1000, []int{1000}},
		{3, 1000, []int{334, 333, 333}},
		{4, 10, []int{3, 3, 2, 2}},
		{0, 10, []int{}},
	}
	for _, tt := range tests {
		got := EvenWeights(tt.n, tt.units)
		if len(got) != len(tt.want) {
			t.Fatalf("EvenWeights(%d,%d) = %v, want %v", tt.n, tt.units, got, tt.want)
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Fatalf("EvenWeights(%d,%d) = %v, want %v", tt.n, tt.units, got, tt.want)
			}
		}
	}
}

func TestBalancerInitialWeightsEven(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := b.Weights()
	sum := 0
	for _, x := range w {
		sum += x
	}
	if sum != DefaultUnits {
		t.Fatalf("initial weights %v sum to %d, want %d", w, sum, DefaultUnits)
	}
	if w[0]-w[2] > 1 {
		t.Fatalf("initial weights %v not even", w)
	}
}

// driveBalancer feeds synthetic observations derived from true per-connection
// capacities: a connection given weight w blocks at rate k*(w - cap) when w
// exceeds its capacity (in units), else 0. This is the idealized knee-shaped
// function of Figure 7.
func driveBalancer(t *testing.T, b *Balancer, caps []int, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		w := b.Weights()
		for j := range caps {
			rate := 0.0
			if over := w[j] - caps[j]; over > 0 {
				rate = float64(over) * 3
			}
			if err := b.Observe(j, rate); err != nil {
				t.Fatalf("round %d observe %d: %v", r, j, err)
			}
		}
		if _, err := b.Rebalance(); err != nil {
			t.Fatalf("round %d rebalance: %v", r, err)
		}
	}
}

func TestBalancerDetectsImbalance(t *testing.T) {
	// Connection 0 can only absorb 5% of the load; the others are roomy.
	b, err := NewBalancer(Config{Connections: 3})
	if err != nil {
		t.Fatal(err)
	}
	driveBalancer(t, b, []int{50, 600, 600}, 30)
	w := b.Weights()
	if w[0] > 100 {
		t.Fatalf("weights = %v, want connection 0 throttled to near its capacity 50", w)
	}
	if w[1] < 300 || w[2] < 300 {
		t.Fatalf("weights = %v, want load shifted to connections 1 and 2", w)
	}
}

func TestBalancerEqualCapacityStaysEven(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 4})
	if err != nil {
		t.Fatal(err)
	}
	driveBalancer(t, b, []int{300, 300, 300, 300}, 40)
	for j, w := range b.Weights() {
		if w < 150 || w > 350 {
			t.Fatalf("weights = %v: connection %d drifted far from even", b.Weights(), j)
		}
	}
}

func TestBalancerAdaptsAfterLoadRemoval(t *testing.T) {
	// LB-adaptive: after connection 0's capacity recovers, decay must let
	// its weight climb back; LB-static must not.
	run := func(decay bool) int {
		b, err := NewBalancer(Config{Connections: 2, DecayEnabled: decay})
		if err != nil {
			t.Fatal(err)
		}
		driveBalancer(t, b, []int{30, 900}, 40)   // loaded phase
		driveBalancer(t, b, []int{900, 900}, 200) // load removed
		return b.Weights()[0]
	}
	adaptive := run(true)
	static := run(false)
	if adaptive <= static {
		t.Fatalf("adaptive weight %d <= static weight %d after load removal", adaptive, static)
	}
	if adaptive < 200 {
		t.Fatalf("adaptive weight %d, want substantial recovery toward even", adaptive)
	}
}

func TestBalancerMaxStepLimitsMovement(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 2, MaxStep: 50})
	if err != nil {
		t.Fatal(err)
	}
	before := b.Weights()
	// Extreme observation: connection 0 blocks hard at its current weight.
	if err := b.Observe(0, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := b.Observe(1, 0); err != nil {
		t.Fatal(err)
	}
	after, err := b.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	for j := range after {
		diff := after[j] - before[j]
		if diff < -50 || diff > 50 {
			t.Fatalf("weights moved %v -> %v: connection %d moved %d, limit 50", before, after, j, diff)
		}
	}
}

func TestBalancerObserveValidation(t *testing.T) {
	b, err := NewBalancer(Config{Connections: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Observe(-1, 0); err == nil {
		t.Fatal("negative connection accepted")
	}
	if err := b.Observe(2, 0); err == nil {
		t.Fatal("out-of-range connection accepted")
	}
	if err := b.ObserveAt(5, 10, 0); err == nil {
		t.Fatal("out-of-range connection accepted by ObserveAt")
	}
}

func TestBalancerClusteredSolve(t *testing.T) {
	// 32 connections in two capacity classes; clustering must discover two
	// groups and starve the slow class.
	n := 32
	b, err := NewBalancer(Config{
		Connections:    n,
		ClusterEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]int, n)
	for j := 0; j < n; j++ {
		if j < n/2 {
			caps[j] = 5 // heavily loaded class
		} else {
			caps[j] = 120 // unloaded class: 16*120 > 1000, plenty of room
		}
	}
	driveBalancer(t, b, caps, 40)

	clusters := b.LastClusters()
	if clusters == nil {
		t.Fatal("clustering enabled but LastClusters is nil")
	}
	// No cluster may mix the two classes once the functions are learned.
	for _, c := range clusters {
		slow := c[0] < n/2
		for _, m := range c[1:] {
			if (m < n/2) != slow {
				t.Fatalf("cluster %v mixes capacity classes", c)
			}
		}
	}
	var slowTotal, fastTotal int
	for j, w := range b.Weights() {
		if j < n/2 {
			slowTotal += w
		} else {
			fastTotal += w
		}
	}
	if slowTotal >= fastTotal {
		t.Fatalf("slow class holds %d units vs fast %d, want fast to dominate", slowTotal, fastTotal)
	}
}

func TestBalancerClusteringDisabledBelowMin(t *testing.T) {
	b, err := NewBalancer(Config{
		Connections:    4,
		ClusterEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	driveBalancer(t, b, []int{300, 300, 300, 300}, 3)
	if b.LastClusters() != nil {
		t.Fatal("clustering ran below 32 connections")
	}
}

func TestBalancerWeightsAlwaysSumToUnits(t *testing.T) {
	configs := []Config{
		{Connections: 2},
		{Connections: 3, DecayEnabled: true},
		{Connections: 7, MaxStep: 20},
		{Connections: 33, ClusterEnabled: true},
	}
	for _, cfg := range configs {
		b, err := NewBalancer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		caps := make([]int, cfg.Connections)
		for j := range caps {
			caps[j] = 30 * (j + 1)
		}
		for r := 0; r < 15; r++ {
			w := b.Weights()
			for j := range caps {
				rate := 0.0
				if over := w[j] - caps[j]; over > 0 {
					rate = float64(over)
				}
				if err := b.Observe(j, rate); err != nil {
					t.Fatal(err)
				}
			}
			got, err := b.Rebalance()
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, x := range got {
				sum += x
			}
			if sum != b.Units() {
				t.Fatalf("cfg %+v round %d: weights sum %d != %d", cfg, r, sum, b.Units())
			}
		}
	}
}

// TestBalancerStepZeroTrust pins how one interval's rates are folded in:
// a connection that blocked is always observed at full trust; what a silent
// connection's zero is worth depends on the mode and on how much of the
// interval the splitter spent blocked elsewhere.
func TestBalancerStepZeroTrust(t *testing.T) {
	tests := []struct {
		name      string
		mode      ZeroTrustMode
		rates     []float64
		wantTrust float64 // trust folded into silent connection 1
	}{
		{"scaled drops zeros under full blocking", ZeroTrustScaled, []float64{1.0, 0, 0}, 0},
		{"scaled clamps an over-full interval", ZeroTrustScaled, []float64{0.8, 0, 0.7}, 0},
		{"scaled drops zeros below 1% trust", ZeroTrustScaled, []float64{0.995, 0, 0}, 0},
		{"scaled trusts zeros by the unblocked share", ZeroTrustScaled, []float64{0.4, 0, 0}, 0.6},
		{"scaled trusts zeros fully when nobody blocked", ZeroTrustScaled, []float64{0, 0, 0}, 1},
		{"none drops zeros always", ZeroTrustNone, []float64{0.4, 0, 0}, 0},
		{"full records zeros always", ZeroTrustFull, []float64{1.0, 0, 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, err := NewBalancer(Config{Connections: 3, ZeroTrust: tt.mode})
			if err != nil {
				t.Fatal(err)
			}
			weights, err := b.Step(tt.rates, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, w := range weights {
				sum += w
			}
			if sum != b.Units() || b.Rounds() != 1 {
				t.Fatalf("weights %v sum to %d after %d rebalances, want %d after 1", weights, sum, b.Rounds(), b.Units())
			}
			if got := b.Func(1).SampleCount(); math.Abs(got-tt.wantTrust) > 1e-9 {
				t.Fatalf("silent connection folded in trust %v, want %v", got, tt.wantTrust)
			}
			if tt.rates[0] > 0 && b.Func(0).SampleCount() != 1 {
				t.Fatalf("blocked connection folded in trust %v, want 1", b.Func(0).SampleCount())
			}
		})
	}

	b, err := NewBalancer(Config{Connections: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step([]float64{0.5, 0}, nil); err == nil {
		t.Fatal("Step accepted 2 rates for 3 connections")
	}
	if b.Rounds() != 0 {
		t.Fatal("a rejected Step still rebalanced")
	}
}
