package sim

import (
	"reflect"
	"testing"
	"time"

	"streambalance/internal/core"
)

// oneHost places n PEs on a single slow host.
func oneHost(n int, loads ...LoadSchedule) ([]HostSpec, []PESpec) {
	hosts := []HostSpec{SlowHost("host0")}
	pes := make([]PESpec, n)
	for j := range pes {
		pes[j] = PESpec{Host: 0}
		if j < len(loads) {
			pes[j].Load = loads[j]
		}
	}
	return hosts, pes
}

func TestNewValidation(t *testing.T) {
	hosts, pes := oneHost(2)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"empty", Config{}},
		{"no stop condition", Config{Hosts: hosts, PEs: pes, BaseCost: 100}},
		{"zero base cost", Config{Hosts: hosts, PEs: pes, Duration: time.Second}},
		{"bad host ref", Config{Hosts: hosts, PEs: []PESpec{{Host: 9}}, BaseCost: 100, Duration: time.Second}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestRunConservesAndOrdersTuples(t *testing.T) {
	hosts, pes := oneHost(3, ConstantLoad(4)) // one slow conn exercises reordering
	var released []uint64
	s, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		TotalTuples:    5000,
		SampleInterval: 100 * time.Millisecond,
		Sink:           func(seq uint64, conn int) { released = append(released, seq) },
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Sent != 5000 || m.Completed != 5000 {
		t.Fatalf("sent=%d completed=%d, want 5000 each", m.Sent, m.Completed)
	}
	var sentSum, doneSum uint64
	for j := range m.PerConnSent {
		sentSum += m.PerConnSent[j]
		doneSum += m.PerConnCompleted[j]
	}
	if sentSum != 5000 || doneSum != 5000 {
		t.Fatalf("per-conn sums: sent=%d done=%d, want 5000", sentSum, doneSum)
	}
	if len(released) != 5000 {
		t.Fatalf("sink saw %d tuples, want 5000", len(released))
	}
	// Sequential semantics: tuples exit in exactly the order they entered.
	for i, seq := range released {
		if seq != uint64(i) {
			t.Fatalf("release %d has seq %d: order violated", i, seq)
		}
	}
	if m.EndTime <= 0 {
		t.Fatal("EndTime not recorded")
	}
}

func TestEqualPerConnectionThroughput(t *testing.T) {
	// Section 4.3: under round-robin, per-connection throughput is equal
	// even when one connection is 10x slower, because of the ordered merge.
	hosts, pes := oneHost(3, ConstantLoad(10))
	s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 1000, Duration: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	base := m.PerConnCompleted[0]
	if base == 0 {
		t.Fatal("no tuples completed")
	}
	for j, c := range m.PerConnCompleted {
		diff := int64(c) - int64(base)
		if diff < 0 {
			diff = -diff
		}
		// Within 2%: the counts differ only by in-flight skew.
		if float64(diff) > 0.02*float64(base) {
			t.Fatalf("per-conn completed %v: connection %d deviates from %d", m.PerConnCompleted, j, base)
		}
	}
}

func TestBackPressureGatesOnSlowest(t *testing.T) {
	// The steady-state throughput of the pipeline is that of its slowest
	// member times N (Section 4.3). One slow host PE at 10x with base cost
	// 1000 multiplies and 1µs per multiply processes 100 tuples/s, so the
	// 3-connection round-robin region does ~300/s.
	hosts, pes := oneHost(3, ConstantLoad(10))
	s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 1000, Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanThroughput < 250 || m.MeanThroughput > 330 {
		t.Fatalf("mean throughput = %.1f, want ~300 (gated by slowest)", m.MeanThroughput)
	}
}

func TestDraftingConcentratesBlocking(t *testing.T) {
	// Section 4.2: with equal capacities, blocking still lands almost
	// entirely on a single draft-leader connection.
	hosts, pes := oneHost(3)
	s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 1000, Duration: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var total, max time.Duration
	for _, b := range m.TotalBlocking {
		total += b
		if b > max {
			max = b
		}
	}
	if total == 0 {
		t.Fatal("no blocking recorded in an overloaded region")
	}
	if float64(max) < 0.9*float64(total) {
		t.Fatalf("blocking %v: leader holds %.0f%%, want >= 90%%", m.TotalBlocking, 100*float64(max)/float64(total))
	}
}

func TestBlockingFollowsOverloadedConnection(t *testing.T) {
	// With a genuinely slow connection, the splitter's blocking time must
	// accrue to it, not to a fast one — this is the signal the whole scheme
	// rests on (Section 3).
	hosts, pes := oneHost(3, ConstantLoad(10))
	s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 1000, Duration: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalBlocking[0] <= m.TotalBlocking[1] || m.TotalBlocking[0] <= m.TotalBlocking[2] {
		t.Fatalf("blocking %v: slow connection 0 should dominate", m.TotalBlocking)
	}
}

func TestBalancerPolicyBeatsRoundRobin(t *testing.T) {
	// One connection 10x slower: the balancer should reach several times
	// round-robin's throughput (Figure 9 reports 1.5-4x with half the PEs
	// loaded; with one-of-three loaded the gap is larger).
	run := func(policy Policy) Metrics {
		hosts, pes := oneHost(3, ConstantLoad(10))
		s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 1000, Duration: 60 * time.Second, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	b, err := core.NewBalancer(core.Config{Connections: 3, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	pol := NewBalancerPolicy(b, "LB-adaptive")
	lb := run(pol)
	if pol.Err() != nil {
		t.Fatal(pol.Err())
	}
	rr := run(RoundRobin{})
	if lb.FinalThroughput < 2*rr.FinalThroughput {
		t.Fatalf("LB final throughput %.1f < 2x RR %.1f", lb.FinalThroughput, rr.FinalThroughput)
	}
	// The slow connection's weight must end well below even share.
	if lb.FinalWeights[0] > 150 {
		t.Fatalf("final weights %v: slow connection should be throttled", lb.FinalWeights)
	}
}

func TestBalancerConvergesNearCapacityProportional(t *testing.T) {
	hosts, pes := oneHost(3, ConstantLoad(10))
	b, err := core.NewBalancer(core.Config{Connections: 3, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	pol := NewBalancerPolicy(b, "LB-adaptive")
	s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 1000, Duration: 90 * time.Second, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Capacities are 100/1000/1000 tuples/s: proportional weights are
	// ~[48, 476, 476]. Allow a loose band — the draft leader rotates.
	if m.FinalWeights[0] < 20 || m.FinalWeights[0] > 120 {
		t.Fatalf("final weights %v: slow connection far from proportional ~48", m.FinalWeights)
	}
	if m.FinalThroughput < 1500 {
		t.Fatalf("final throughput %.1f, want >= 1500 (oracle ~2084)", m.FinalThroughput)
	}
}

func TestOracleScheduleSwitches(t *testing.T) {
	hosts, pes := oneHost(2)
	var sawEarly, sawLate bool
	oracle := NewOracleSchedule([]WeightPhase{
		{From: 0, Weights: []int{900, 100}},
		{From: 5 * time.Second, Weights: []int{100, 900}},
	}, "")
	s, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		Duration: 10 * time.Second,
		Policy:   oracle,
		Observer: func(sn Snapshot) {
			if sn.Now < 5*time.Second && sn.Weights[0] == 900 {
				sawEarly = true
			}
			if sn.Now >= 5*time.Second && sn.Weights[0] == 100 {
				sawLate = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawEarly || !sawLate {
		t.Fatalf("oracle phases not applied: early=%v late=%v", sawEarly, sawLate)
	}
	if oracle.Name() != "Oracle*" {
		t.Fatalf("default label = %q, want Oracle*", oracle.Name())
	}
}

func TestRerouteModeDivertsTuples(t *testing.T) {
	// Section 4.4: transport-level re-routing preserves order but is "too
	// little, too late" — by the time a connection blocks, the ordered
	// merge is already gated by its buffered backlog, so re-routing falls
	// far short of what the model-driven balancer achieves on the same
	// scenario (~2000 tuples/s; see TestBalancerConvergesNearCapacityProportional).
	hosts, pes := oneHost(2, ConstantLoad(100))
	var released []uint64
	s, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		Duration:       30 * time.Second,
		RerouteOnBlock: true,
		Sink:           func(seq uint64, conn int) { released = append(released, seq) },
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rerouted == 0 {
		t.Fatal("re-routing mode never rerouted")
	}
	// The fast connection alone could absorb ~1000 tuples/s if re-routing
	// were a real solution; the ordered merge keeps it far below that.
	if m.MeanThroughput > 400 {
		t.Fatalf("reroute throughput %.1f: expected the ordered merge to gate it", m.MeanThroughput)
	}
	// Order must still hold: the merger reorders whatever path tuples took.
	for i, seq := range released {
		if seq != uint64(i) {
			t.Fatalf("release %d has seq %d: order violated under rerouting", i, seq)
		}
	}
}

func TestRerouteFarShortOfBalancer(t *testing.T) {
	// Section 4.4's conclusion: transport-level re-routing improves on
	// round-robin but is "not nearly enough" — the model-driven balancer
	// must deliver a decisively larger improvement on the same scenario.
	run := func(reroute bool, policy Policy) Metrics {
		hosts, pes := oneHost(2, ConstantLoad(100))
		s, err := New(Config{
			Hosts: hosts, PEs: pes, BaseCost: 1000,
			Duration:       300 * time.Second,
			RerouteOnBlock: reroute,
			Policy:         policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	b, err := core.NewBalancer(core.Config{Connections: 2, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	reroute := run(true, nil)
	balanced := run(false, NewBalancerPolicy(b, "LB"))
	if balanced.MeanThroughput < 2*reroute.MeanThroughput {
		t.Fatalf("LB %.1f vs reroute %.1f: balancer should far exceed re-routing",
			balanced.MeanThroughput, reroute.MeanThroughput)
	}
}

// TestRunRoutingKeepsWeightShares: at BatchSize 32 the splitter picks once per
// run, so every run of 32 consecutive sequence numbers is processed by one
// connection, each connection's share of the tuples is its weight share to
// within one run, and the stream is still released in order.
func TestRunRoutingKeepsWeightShares(t *testing.T) {
	const batch = 32
	weights := []int{100, 200, 300, 400}
	total := uint64(2*core.DefaultUnits*batch + 5) // two whole frames of runs and a partial run
	hosts, pes := oneHost(len(weights))
	next, runConn := uint64(0), -1
	s, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 100,
		BatchSize:   batch,
		TotalTuples: total,
		Sink: func(seq uint64, conn int) {
			if seq != next {
				t.Fatalf("release %d has seq %d: order violated", next, seq)
			}
			if seq%batch == 0 {
				runConn = conn
			} else if conn != runConn {
				t.Fatalf("seq %d went to connection %d, the rest of its run to %d", seq, conn, runConn)
			}
			next++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.wrr.SetWeights(weights); err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Sent != total || next != total {
		t.Fatalf("sent %d, released %d, want %d", m.Sent, next, total)
	}
	for j, w := range weights {
		want := float64(w) / core.DefaultUnits * float64(total)
		if d := float64(m.PerConnSent[j]) - want; d > batch || d < -batch {
			t.Fatalf("connection %d sent %d of %d, want %.0f (weight %d) within one run",
				j, m.PerConnSent[j], total, want, w)
		}
	}
}

func TestObserverSnapshots(t *testing.T) {
	hosts, pes := oneHost(2)
	var snaps []Snapshot
	s, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		Duration:       5 * time.Second,
		SampleInterval: time.Second,
		Observer:       func(sn Snapshot) { snaps = append(snaps, sn) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 5 {
		t.Fatalf("got %d snapshots, want 5", len(snaps))
	}
	for i, sn := range snaps {
		if sn.Now != time.Duration(i+1)*time.Second {
			t.Fatalf("snapshot %d at %v, want %v", i, sn.Now, time.Duration(i+1)*time.Second)
		}
		if len(sn.BlockingRates) != 2 || len(sn.Weights) != 2 {
			t.Fatalf("snapshot %d has wrong widths: %+v", i, sn)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Completed == 0 || last.Throughput == 0 {
		t.Fatalf("final snapshot shows no progress: %+v", last)
	}
}

func TestHeterogeneousHostsFavored(t *testing.T) {
	// One PE on a fast host, one on a slow host (Section 6.5): the
	// balancer should give the fast connection more weight.
	hosts := []HostSpec{FastHost("fast"), SlowHost("slow")}
	pes := []PESpec{{Host: 0}, {Host: 1}}
	b, err := core.NewBalancer(core.Config{Connections: 2, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	pol := NewBalancerPolicy(b, "LB-adaptive")
	s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 20000, Duration: 90 * time.Second, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if pol.Err() != nil {
		t.Fatal(pol.Err())
	}
	if m.FinalWeights[0] <= m.FinalWeights[1] {
		t.Fatalf("final weights %v: fast host should receive more", m.FinalWeights)
	}
}

func TestOversubscriptionSlowsHost(t *testing.T) {
	// 16 PEs on a slow host (8 slots) must process each tuple 2x slower.
	hosts := []HostSpec{SlowHost("slow")}
	run := func(n int) float64 {
		pes := make([]PESpec, n)
		for j := range pes {
			pes[j] = PESpec{Host: 0}
		}
		s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 1000, Duration: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m.MeanThroughput
	}
	eight := run(8)
	sixteen := run(16)
	// 16 oversubscribed PEs have the same aggregate capacity as 8: each
	// runs at half speed. Throughput should be roughly equal, not double.
	if sixteen > 1.2*eight {
		t.Fatalf("throughput 8 PEs = %.0f, 16 PEs = %.0f: oversubscription not modelled", eight, sixteen)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Metrics {
		hosts, pes := oneHost(4, ConstantLoad(3), ConstantLoad(1), ConstantLoad(7))
		b, err := core.NewBalancer(core.Config{Connections: 4, DecayEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Hosts: hosts, PEs: pes, BaseCost: 1000,
			Duration: 20 * time.Second,
			Policy:   NewBalancerPolicy(b, "LB"),
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestDynamicLoadRemoval(t *testing.T) {
	// The paper's dynamic pattern: 100x load removed partway through. The
	// adaptive balancer's final throughput must far exceed its throughput
	// while loaded, and the final weights should return toward even.
	hosts, pes := oneHost(2, StepLoad(100, 1, 20*time.Second))
	b, err := core.NewBalancer(core.Config{Connections: 2, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	pol := NewBalancerPolicy(b, "LB-adaptive")
	var loadedTput float64
	s, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		Duration: 160 * time.Second,
		Policy:   pol,
		Observer: func(sn Snapshot) {
			if sn.Now == 19*time.Second {
				loadedTput = sn.Throughput
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
	if pol.Err() != nil {
		t.Fatal(pol.Err())
	}
	if m.FinalThroughput < 2*loadedTput {
		t.Fatalf("final throughput %.1f vs loaded %.1f: no adaptation visible", m.FinalThroughput, loadedTput)
	}
	if m.FinalWeights[0] < 250 {
		t.Fatalf("final weights %v: loaded connection did not recover toward even", m.FinalWeights)
	}
}

func TestSourceRateThrottlesSplitter(t *testing.T) {
	// A 100-tuple/s source on an otherwise idle region: throughput must
	// track the source, not the workers, and nothing should block.
	hosts, pes := oneHost(2)
	rate := ConstantLoad(100)
	s, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		Duration:   20 * time.Second,
		SourceRate: &rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanThroughput < 80 || m.MeanThroughput > 110 {
		t.Fatalf("mean throughput %.1f, want ~100 (source-limited)", m.MeanThroughput)
	}
	for j, b := range m.TotalBlocking {
		if b > time.Second {
			t.Fatalf("connection %d blocked %v under an under-subscribed source", j, b)
		}
	}
	// Latency must be tiny: queues never build.
	if m.LatencyP99 > 50*time.Millisecond {
		t.Fatalf("p99 latency %v, want small with empty queues", m.LatencyP99)
	}
}

func TestLatencyMetricsPopulated(t *testing.T) {
	hosts, pes := oneHost(2, ConstantLoad(10))
	s, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 1000, Duration: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.LatencyP50 <= 0 || m.LatencyP99 < m.LatencyP50 || m.LatencyMax < m.LatencyP99 {
		t.Fatalf("latency stats inconsistent: p50=%v p99=%v max=%v",
			m.LatencyP50, m.LatencyP99, m.LatencyMax)
	}
}

func TestServiceJitterValidation(t *testing.T) {
	hosts, pes := oneHost(2)
	for _, jitter := range []float64{-0.1, 1.0, 2.5} {
		if _, err := New(Config{Hosts: hosts, PEs: pes, BaseCost: 100, Duration: time.Second, ServiceJitter: jitter}); err == nil {
			t.Fatalf("jitter %v accepted", jitter)
		}
	}
}

func TestBalancerRobustToServiceJitter(t *testing.T) {
	// 20% service-time noise: the balancer must still find the imbalance
	// and deliver several times round-robin's throughput.
	run := func(policy Policy) Metrics {
		hosts, pes := oneHost(3, ConstantLoad(10))
		s, err := New(Config{
			Hosts: hosts, PEs: pes, BaseCost: 1000,
			Duration:      90 * time.Second,
			ServiceJitter: 0.2,
			Seed:          7,
			Policy:        policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	b, err := core.NewBalancer(core.Config{Connections: 3, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	pol := NewBalancerPolicy(b, "LB")
	lb := run(pol)
	if pol.Err() != nil {
		t.Fatal(pol.Err())
	}
	rr := run(RoundRobin{})
	if lb.FinalThroughput < 3*rr.FinalThroughput {
		t.Fatalf("LB %.1f vs RR %.1f under jitter: balancer degraded", lb.FinalThroughput, rr.FinalThroughput)
	}
	if lb.FinalWeights[0] > 150 {
		t.Fatalf("final weights %v under jitter: slow connection not throttled", lb.FinalWeights)
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) Metrics {
		hosts, pes := oneHost(2, ConstantLoad(5))
		s, err := New(Config{
			Hosts: hosts, PEs: pes, BaseCost: 1000,
			Duration: 10 * time.Second, ServiceJitter: 0.3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(3), run(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different runs")
	}
	c := run(4)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical runs (jitter inert?)")
	}
}

// TestStallMetricsObserveStraggler checks the virtual-time stall
// observability: a connection whose tuples suddenly cost 200x gates the
// ordered merge long enough to stretch the max release gap past the window,
// while a balanced run's gap stays inside it.
func TestStallMetricsObserveStraggler(t *testing.T) {
	const window = 50 * time.Millisecond

	hosts, pes := oneHost(3)
	clean, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		TotalTuples:    3000,
		SampleInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cm.MaxReleaseGap >= window {
		t.Fatalf("balanced run's max release gap %v reached the window %v", cm.MaxReleaseGap, window)
	}

	hosts, pes = oneHost(3, StepLoad(1, 200, 500*time.Millisecond))
	stalled, err := New(Config{
		Hosts: hosts, PEs: pes, BaseCost: 1000,
		TotalTuples:    3000,
		SampleInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := stalled.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sm.MaxReleaseGap < window {
		t.Fatalf("straggler max release gap %v below the window %v", sm.MaxReleaseGap, window)
	}
	if sm.Completed != 3000 {
		t.Fatalf("completed %d of 3000", sm.Completed)
	}
}
