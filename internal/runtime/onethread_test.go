package runtime

import (
	"errors"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/sim"
	"streambalance/internal/stats"
	"streambalance/internal/testutil"
	"streambalance/internal/transport"
)

// These tests pin what "one thread of control" buys: the send loop samples
// its own counters between rounds, so a sample never cuts a blocking episode
// in two, the interval step is the one internal/sim takes, and nothing the
// loop owns needs a lock.

// TestSampleNeverSplitsABlockingEpisode runs the paper's Section 6 shape —
// four slept-service workers, one three times slower — on both transports.
// One thread cannot be blocked on two connections at once, nor for more than
// a second per second, so every interval's rates must sum to at most 1. A
// sampler on another goroutine reads a park that spans its tick as 0 now and
// as more than 1 at the next tick.
func TestSampleNeverSplitsABlockingEpisode(t *testing.T) {
	const wantSamples = 30
	for _, kind := range []TransportKind{TransportTCP, TransportInproc} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel() // the workers sleep their service time; two regions fit
			balancer, err := core.NewBalancer(core.Config{Connections: 4, DecayEnabled: true})
			if err != nil {
				t.Fatal(err)
			}
			type sample struct {
				now   time.Duration
				rates []float64
			}
			var samples []sample
			var taken atomic.Int64
			payload := make([]byte, 64)
			region, err := NewRegion(RegionConfig{
				Transport: kind,
				Operators: []Operator{
					NewServiceOperator(40 * time.Microsecond),
					NewServiceOperator(40 * time.Microsecond),
					NewServiceOperator(40 * time.Microsecond),
					NewServiceOperator(120 * time.Microsecond),
				},
				Source: func(uint64) ([]byte, bool) {
					return payload, taken.Load() < wantSamples+2
				},
				Balancer:       balancer,
				SampleInterval: 100 * time.Millisecond,
				BatchSize:      32,
				OnSample: func(now time.Duration, rates []float64, _ []int) {
					samples = append(samples, sample{now, append([]float64(nil), rates...)})
					taken.Add(1)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res, err := region.Run(); err != nil || !res.OrderPreserved {
				t.Fatalf("run: order=%v err=%v", res.OrderPreserved, err)
			}
			if len(samples) < wantSamples {
				t.Fatalf("%d samples, want at least %d", len(samples), wantSamples)
			}
			blocked, largest := 0, 0.0
			for _, s := range samples {
				sum := 0.0
				for j, r := range s.rates {
					if r > 1.02 {
						t.Errorf("at %v connection %d blocked %.2f s/s: %v", s.now, j, r, s.rates)
					}
					sum += r
				}
				if sum > 1.02 {
					t.Errorf("at %v the splitter was blocked %.2f s/s in total: %v", s.now, sum, s.rates)
				}
				if sum > 0 {
					blocked++
				}
				largest = max(largest, sum)
			}
			t.Logf("%d samples, %d with blocking, largest interval sum %.3f", len(samples), blocked, largest)
			if blocked < wantSamples/2 {
				t.Errorf("only %d of %d samples saw any blocking: the region never saturated", blocked, len(samples))
			}
		})
	}
}

// TestSplitterSingleThreadOfControl: Source and OnSample share one plain int.
// That is clean under -race only because both run on the send loop.
func TestSplitterSingleThreadOfControl(t *testing.T) {
	balancer, err := core.NewBalancer(core.Config{Connections: 2, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	shared, ticks := 0, 0
	region, err := NewRegion(RegionConfig{
		Transport: TransportInproc,
		Operators: []Operator{Identity(), Identity()},
		Source: func(uint64) ([]byte, bool) {
			shared++
			return nil, ticks < 5
		},
		Balancer:       balancer,
		SampleInterval: time.Millisecond,
		OnSample: func(time.Duration, []float64, []int) {
			shared++
			ticks++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := int(res.Released) + 1 + ticks; shared != want {
		t.Fatalf("shared counter = %d, want %d (released %d + end of stream + %d ticks)", shared, want, res.Released, ticks)
	}
}

// scriptedSender is a BatchSender whose only behaviour is its cumulative
// blocking counter, which the test advances by hand.
type scriptedSender struct {
	transport.BatchSender
	cumulative time.Duration
}

func (s *scriptedSender) SetStallTimeout(time.Duration) {}
func (s *scriptedSender) TotalBlocking() time.Duration  { return s.cumulative }
func (s *scriptedSender) BlockEvents() int64            { return 0 }
func (s *scriptedSender) Sent() int64                   { return 0 }
func (s *scriptedSender) Close() error                  { return nil }

// TestSimAndRuntimeStepAgree drives one script of per-interval blocking
// through the simulator's policy and through a Splitter's tick and requires
// the same weights after every tick. The script crosses an interval nobody
// blocked in, a fully blocked interval, the loss and return of a connection,
// and two of the simulator's periodic counter resets (Figure 2). The runtime
// never resets its counters, so equal weights show the reset changes no rate.
func TestSimAndRuntimeStepAgree(t *testing.T) {
	const interval = 100 * time.Millisecond
	const resetEvery = 4 * interval
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for j, x := range v {
			out[j] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	// Blocking accrued per connection in each interval; edit runs first.
	script := []struct {
		edit    string
		blocked []time.Duration
	}{
		{"", ms(0, 0, 0)}, // primes the samplers
		{"", ms(0, 0, 60)},
		{"", ms(0, 10, 70)},
		{"", ms(0, 0, 0)},   // nobody blocked
		{"", ms(0, 0, 100)}, // fully blocked; the sim's counters reset after this tick
		{"", ms(5, 0, 40)},
		{"remove", ms(30, 20)},
		{"", ms(0, 50)},
		{"add", ms(0, 40, 0)}, // the newcomer's sampler primes
		{"", ms(20, 0, 30)},
		{"", ms(0, 0, 0)},
		{"", ms(0, 100, 0)},
		{"", ms(10, 10, 10)},
	}

	newBalancer := func() *core.Balancer {
		b, err := core.NewBalancer(core.Config{Connections: 3, DecayEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// The simulator's side: the policy, plus the sampler set and cumulative
	// counters sim.Sim keeps in front of it.
	policy := sim.NewBalancerPolicy(newBalancer(), "")
	samplers := stats.NewSamplerSet(3, resetEvery)
	cumulative := make([]time.Duration, 3)

	// The runtime's side: a splitter over scripted senders, never started;
	// the test is its send loop.
	senders := []*scriptedSender{{}, {}, {}}
	sp, err := NewSplitter(SplitterConfig{
		Senders:        []transport.BatchSender{senders[0], senders[1], senders[2]},
		Source:         func(uint64) ([]byte, bool) { return nil, false },
		Balancer:       newBalancer(),
		SampleInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe() // the rejoined connection's monitor needs a socket to watch
	defer func() {
		near.Close()
		far.Close()
		sp.Close()
		testutil.ExpectNoModuleGoroutines(t, 2*time.Second)
	}()

	resets := 0
	for i, step := range script {
		switch step.edit {
		case "remove":
			policy.Balancer().RemoveConnection(1)
			samplers.Remove(1)
			cumulative = append(cumulative[:1], cumulative[2:]...)
			if !sp.removeConn(sp.conns[1], errors.New("scripted failure")) {
				t.Fatal("removeConn did not find the connection")
			}
			senders = append(senders[:1], senders[2:]...)
		case "add":
			policy.Balancer().AddConnection()
			samplers.Add()
			cumulative = append(cumulative, 0)
			senders = append(senders, &scriptedSender{})
			sp.admitRejoin(rejoin{id: 1, conn: near, sender: senders[2], acks: transport.NewAcks()})
		}
		if step.edit != "" && !reflect.DeepEqual(sp.wrr.Weights(), policy.Balancer().Weights()) {
			t.Fatalf("step %d after %s: runtime weights %v, sim %v", i, step.edit, sp.wrr.Weights(), policy.Balancer().Weights())
		}
		now := time.Duration(i+1) * interval
		for j, d := range step.blocked {
			cumulative[j] += d
			senders[j].cumulative += d
		}
		rates, reset := samplers.Sample(now, cumulative)
		if reset {
			resets++
			for j := range cumulative {
				cumulative[j] = 0
			}
		}
		want := policy.OnSample(sim.Snapshot{Now: now, BlockingRates: rates})
		if err := policy.Err(); err != nil {
			t.Fatal(err)
		}
		if err := sp.tick(now); err != nil {
			t.Fatal(err)
		}
		if got := sp.wrr.Weights(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: runtime weights %v, sim %v (rates %v)", i, got, want, rates)
		}
	}
	if resets < 2 {
		t.Fatalf("script crossed %d counter resets, want at least 2", resets)
	}
	if w := sp.wrr.Weights(); w[0] == w[1] && w[1] == w[2] {
		t.Fatalf("weights never moved: %v", w)
	}
}

// TestSamplersTrackLiveConnections: a redialed connection gets a fresh
// sampler and a retired one gives its sampler up, so after any number of
// kill and rejoin cycles the splitter holds exactly one per live connection
// (a per-sender map used to gain an entry per redial and pin every dead
// sender for the life of the region).
func TestSamplersTrackLiveConnections(t *testing.T) {
	const cycles = 20
	proxies, wrap := chaosProxies(t, 3)
	var region *Region
	rejoins, killsDue := 0, 1
	check := func(when string) {
		sp := region.splitter
		if got, live := sp.samplers.Len(), len(sp.conns); got != live {
			t.Errorf("%s: %d samplers for %d live connections", when, got, live)
		}
	}
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{Identity(), Identity(), Identity()},
		// Source, OnSample and OnConnEvent all run on the send loop, so the
		// counters they share and the splitter state check reads are plain.
		Source: func(seq uint64) ([]byte, bool) {
			if rejoins == cycles {
				return nil, false
			}
			if killsDue > 0 {
				killsDue--
				proxies[1].KillActive()
			}
			if seq%64 == 0 {
				time.Sleep(200 * time.Microsecond) // keep the stream small while redials are pending
			}
			return []byte("x"), true
		},
		SampleInterval: 5 * time.Millisecond,
		OnSample:       func(time.Duration, []float64, []int) { check("tick") },
		OnConnEvent: func(ev ConnEvent) {
			check(ev.Kind)
			if ev.Kind == "rejoin" {
				rejoins++
				killsDue++
			}
		},
		Recovery: RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 5 * time.Millisecond,
			MaxReadmits:       -1,
			Redial:            &transport.RedialPolicy{Base: time.Millisecond, Max: 10 * time.Millisecond},
		},
		WrapWorkerAddr: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.OrderPreserved {
		t.Fatal("order not preserved")
	}
	if rejoins != cycles {
		t.Fatalf("%d rejoins, want %d", rejoins, cycles)
	}
	check("end of run")
	if got := region.splitter.samplers.Len(); got != 3 {
		t.Fatalf("%d samplers after %d kill/rejoin cycles, want 3", got, cycles)
	}
}
