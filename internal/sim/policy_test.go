package sim

import (
	"testing"
	"time"

	"streambalance/internal/core"
)

func TestRoundRobinPolicy(t *testing.T) {
	var rr RoundRobin
	if rr.Name() != "RR" {
		t.Fatalf("Name = %q, want RR", rr.Name())
	}
	if got := rr.OnSample(Snapshot{BlockingRates: []float64{1, 0}}); got != nil {
		t.Fatalf("RR returned weights %v, want nil", got)
	}
}

func TestBalancerPolicyZeroTrustModes(t *testing.T) {
	// One connection fully blocked; the others silent. The modes differ in
	// whether the silent connections accumulate data.
	sample := Snapshot{
		Now:           time.Second,
		BlockingRates: []float64{1.0, 0, 0},
	}
	tests := []struct {
		name        string
		mode        core.ZeroTrustMode
		wantSamples bool // whether silent connections get any data
	}{
		{"scaled drops zeros under full blocking", core.ZeroTrustScaled, false},
		{"none drops zeros always", core.ZeroTrustNone, false},
		{"full records zeros always", core.ZeroTrustFull, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, err := core.NewBalancer(core.Config{Connections: 3, ZeroTrust: tt.mode})
			if err != nil {
				t.Fatal(err)
			}
			pol := NewBalancerPolicy(b, "LB")
			if weights := pol.OnSample(sample); weights == nil {
				t.Fatal("policy returned no weights")
			}
			if err := pol.Err(); err != nil {
				t.Fatal(err)
			}
			if got := b.Func(1).SampleCount() > 0; got != tt.wantSamples {
				t.Fatalf("silent connection has data = %v, want %v", got, tt.wantSamples)
			}
			// The blocked connection always receives its sample.
			if b.Func(0).SampleCount() == 0 {
				t.Fatal("blocked connection received no data")
			}
		})
	}
}

func TestBalancerPolicyScaledTrustPartialBlocking(t *testing.T) {
	// Splitter blocked 40% of the interval: zeros carry trust 0.6.
	b, err := core.NewBalancer(core.Config{Connections: 2})
	if err != nil {
		t.Fatal(err)
	}
	pol := NewBalancerPolicy(b, "LB")
	pol.OnSample(Snapshot{Now: time.Second, BlockingRates: []float64{0.4, 0}})
	if err := pol.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.Func(1).SampleCount()
	if got <= 0.5 || got >= 0.7 {
		t.Fatalf("silent connection trust = %v, want ~0.6", got)
	}
}

func TestBalancerPolicyName(t *testing.T) {
	b, err := core.NewBalancer(core.Config{Connections: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := NewBalancerPolicy(b, "").Name(); got != "LB" {
		t.Fatalf("default label = %q, want LB", got)
	}
	if got := NewBalancerPolicy(b, "LB-static").Name(); got != "LB-static" {
		t.Fatalf("label = %q, want LB-static", got)
	}
}

func TestOracleScheduleFromTuples(t *testing.T) {
	oracle := NewOracleSchedule([]WeightPhase{
		{From: 0, Weights: []int{900, 100}},
		{FromTuples: 500, Weights: []int{100, 900}},
	}, "")
	early := oracle.OnSample(Snapshot{Now: time.Minute, Completed: 499})
	if early[0] != 900 {
		t.Fatalf("weights before tuple trigger = %v, want [900 100]", early)
	}
	late := oracle.OnSample(Snapshot{Now: time.Second, Completed: 500})
	if late[0] != 100 {
		t.Fatalf("weights after tuple trigger = %v, want [100 900]", late)
	}
}

func TestPostSwitchLoadsValidation(t *testing.T) {
	hosts, pes := oneHost(3)
	_, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 100, Duration: time.Second,
		PostSwitchLoads: make([]LoadSchedule, 2), // wrong length
	})
	if err == nil {
		t.Fatal("mismatched PostSwitchLoads accepted")
	}
}

func TestPostSwitchLoadsTrigger(t *testing.T) {
	// One PE at 100x until 200 tuples complete, then unloaded: the run's
	// later throughput must far exceed its early throughput.
	hosts, pes := oneHost(2, ConstantLoad(100))
	post := make([]LoadSchedule, 2)
	var early, late float64
	s, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		Duration:              120 * time.Second,
		PostSwitchLoads:       post,
		LoadSwitchAfterTuples: 200,
		Observer: func(sn Snapshot) {
			if sn.Now == 5*time.Second {
				early = float64(sn.Completed)
			}
			if sn.Now == 120*time.Second {
				late = float64(sn.Completed)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed == 0 || late <= early {
		t.Fatalf("no progress: early=%v late=%v", early, late)
	}
	// Post-switch both PEs are unloaded: round-robin reaches ~2000/s, so
	// the mean must be far above the loaded-phase ~20/s.
	if m.MeanThroughput < 200 {
		t.Fatalf("mean throughput %.1f: load switch apparently never fired", m.MeanThroughput)
	}
}
