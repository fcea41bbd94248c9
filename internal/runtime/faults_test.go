package runtime

// One fault harness. A faultPlan describes a recovery region behind chaos
// proxies and the faults to inject into it; runFaultPlan builds the region,
// fires the faults and holds the run to one spec, the paper's sequential
// semantics (Section 2) plus the balancer's allocation constraint (Section
// 3.4):
//
//   - the region returns no error;
//   - Released equals the stream length and the sink saw exactly
//     0…tuples−1, each once, in order;
//   - with a balancer, every weight vector OnSample sees is feasible;
//   - the longest gap between two releases stays within the plan's bound,
//     when it sets one;
//   - a one-worker region quarantines nothing (there is no peer to take its
//     tuples);
//   - at least one fault fired, or the run proved nothing.
//
// TestFaultPlans draws one row of plans per scenario family from fixed
// seeds, so a failure names a seed that reproduces its plan.

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streambalance/internal/chaos"
	"streambalance/internal/core"
	"streambalance/internal/transport"
)

// faultKind names one fault the runner can inject.
type faultKind string

const (
	// faultStall freezes the victim's link (it accepts, never drains) for
	// the fault's hold.
	faultStall faultKind = "stall"
	// faultDrip trickles the victim's link at dripBytesPerSec for the hold.
	faultDrip faultKind = "drip"
	// faultKill severs the victim's live links; its proxy keeps accepting,
	// so a redial brings it back.
	faultKill faultKind = "kill"
	// faultKillDead severs the victim's links and refuses every redial.
	faultKillDead faultKind = "permanent-kill"
	// faultDegrade delays every chunk on the victim's link by 200 µs and
	// caps it at 512 KiB/s for the rest of the run: pressure, no failure.
	faultDegrade faultKind = "degrade"
	// faultPause is a host pause: every worker's operator sleeps the hold
	// once, on its first tuple at or past the fault's sequence number.
	faultPause faultKind = "pause"
)

// dripBytesPerSec is slow enough that one frame takes longer than any stall
// window the plans use.
const dripBytesPerSec = 8

// fault is one injection. A timed fault (after > 0) fires that long after
// the previous timed fault healed, or after the run began; the runner keeps
// firing them until the region returns, through the drain after the source
// ends. Every other fault fires when the source reaches sequence number at;
// a plan lists those in ascending order of at.
type fault struct {
	kind   faultKind
	victim int
	at     uint64
	after  time.Duration
	hold   time.Duration
}

func (f fault) String() string {
	s := string(f.kind)
	if f.kind != faultPause {
		s += fmt.Sprintf(" on worker %d", f.victim)
	}
	if f.after > 0 {
		s += fmt.Sprintf(" after %v", f.after)
	} else {
		s += fmt.Sprintf(" at seq %d", f.at)
	}
	if f.kind == faultStall || f.kind == faultDrip || f.kind == faultPause {
		s += fmt.Sprintf(", hold %v", f.hold)
	}
	return s
}

// faultPlan is one region and the faults injected into it.
type faultPlan struct {
	seed     int64
	workers  int
	tuples   uint64
	batch    int
	balanced bool
	// rate paces the source in tuples per second, 64 tuples at a time;
	// 0 leaves it unpaced.
	rate   int
	sample time.Duration
	// rec is the region's recovery configuration; the runner enables it.
	// DisableRedial turns redial off.
	rec RecoveryConfig
	to  Timeouts
	// maxGap bounds the longest gap between two releases; 0 leaves it
	// unchecked.
	maxGap time.Duration
	faults []fault
}

func (p faultPlan) String() string {
	s := fmt.Sprintf("%d workers, %d tuples, batch %d", p.workers, p.tuples, p.batch)
	if p.balanced {
		s += ", balanced"
	}
	if p.rec.DisableRedial {
		s += ", no redial"
	}
	if len(p.faults) <= 3 {
		var fs []string
		for _, f := range p.faults {
			fs = append(fs, f.String())
		}
		s += ", faults: " + strings.Join(fs, "; ")
	} else {
		s += fmt.Sprintf(", %d timed faults", len(p.faults))
	}
	return s
}

// chaosProxies returns a WrapWorkerAddr that puts a chaos proxy in front of
// each of n workers, and the proxies, filled in as NewRegion dials them. The
// proxies close when t ends.
func chaosProxies(t testing.TB, n int) ([]*chaos.Proxy, func(int, string) string) {
	proxies := make([]*chaos.Proxy, n)
	t.Cleanup(func() { closeProxies(proxies) })
	return proxies, func(i int, addr string) string {
		p, err := chaos.NewProxy(addr)
		if err != nil {
			t.Fatal(err)
		}
		proxies[i] = p
		return p.Addr()
	}
}

func closeProxies(proxies []*chaos.Proxy) {
	for _, p := range proxies {
		if p != nil {
			p.Close()
		}
	}
}

// weightsInfeasible describes why a published weight vector breaks the
// allocation constraint (every share in [0, units], all summing to units),
// or returns "".
func weightsInfeasible(weights []int, units int) string {
	sum := 0
	for j, w := range weights {
		if w < 0 || w > units {
			return fmt.Sprintf("weight[%d]=%d outside [0,%d]", j, w, units)
		}
		sum += w
	}
	if sum != units {
		return fmt.Sprintf("weights %v sum to %d, want %d", weights, sum, units)
	}
	return ""
}

// pauseOnce passes tuples through but sleeps d the first time it sees a
// sequence number at or past at: one worker's share of a host-wide pause.
type pauseOnce struct {
	at    uint64
	d     time.Duration
	once  sync.Once
	fired *atomic.Int64
}

func (p *pauseOnce) Process(t transport.Tuple) transport.Tuple {
	if t.Seq >= p.at {
		p.once.Do(func() {
			p.fired.Add(1)
			time.Sleep(p.d)
		})
	}
	return t
}

// runFaultPlan runs p once and reports every breach of the spec as an error
// naming the plan's seed.
func runFaultPlan(t *testing.T, p faultPlan) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("seed %d (%v): %s", p.seed, p, fmt.Sprintf(format, args...))
	}
	proxies, wrap := chaosProxies(t, p.workers)
	defer closeProxies(proxies)

	var fired atomic.Int64
	inject := func(f fault) (heal func()) {
		fired.Add(1)
		px := proxies[f.victim]
		switch f.kind {
		case faultStall:
			px.SetStall(true)
			return func() { px.SetStall(false) }
		case faultDrip:
			px.SetSlowDrip(dripBytesPerSec)
			return func() { px.SetSlowDrip(0) }
		case faultKillDead:
			px.SetReject(true)
			px.KillActive()
		case faultKill:
			px.KillActive()
		case faultDegrade:
			px.SetDelay(200 * time.Microsecond)
			px.SetThrottle(512 << 10)
		}
		return nil
	}

	ops := make([]Operator, p.workers)
	for i := range ops {
		ops[i] = Identity()
	}
	var atSeq, timed []fault
	for _, f := range p.faults {
		switch {
		case f.kind == faultPause:
			for i := range ops {
				ops[i] = &pauseOnce{at: f.at, d: f.hold, fired: &fired}
			}
		case f.after > 0:
			timed = append(timed, f)
		default:
			atSeq = append(atSeq, f)
		}
	}

	payload := []byte("fault-plan")
	pace := time.Duration(0)
	if p.rate > 0 {
		pace = 64 * time.Second / time.Duration(p.rate)
	}
	source := func(seq uint64) ([]byte, bool) {
		for len(atSeq) > 0 && atSeq[0].at <= seq {
			if heal := inject(atSeq[0]); heal != nil {
				time.AfterFunc(atSeq[0].hold, heal)
			}
			atSeq = atSeq[1:]
		}
		if seq >= p.tuples {
			return nil, false
		}
		if pace > 0 && seq > 0 && seq%64 == 0 {
			time.Sleep(pace)
		}
		return payload, true
	}

	// The sink runs on the merge goroutine alone, and Run returns after it
	// stops: its state needs no lock.
	var (
		released   uint64
		badRelease string
		last       time.Time
		longestGap time.Duration
		mu         sync.Mutex
		events     = map[string]int{}
		infeasible []string
		rec        = p.rec
	)
	rec.Enabled = true
	cfg := RegionConfig{
		Operators:      ops,
		Source:         source,
		SampleInterval: p.sample,
		BatchSize:      p.batch,
		Sink: func(tp transport.Tuple, _ int) {
			now := time.Now()
			if released > 0 && now.Sub(last) > longestGap {
				longestGap = now.Sub(last)
			}
			last = now
			if tp.Seq != released && badRelease == "" {
				badRelease = fmt.Sprintf("release %d carried seq %d (duplicate, gap or reorder)", released, tp.Seq)
			}
			released++
		},
		OnConnEvent: func(ev ConnEvent) {
			mu.Lock()
			events[ev.Kind]++
			mu.Unlock()
		},
		Recovery:       rec,
		Timeouts:       p.to,
		WrapWorkerAddr: wrap,
	}
	if p.balanced {
		bal, err := core.NewBalancer(core.Config{Connections: p.workers, DecayEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Balancer = bal
		cfg.OnSample = func(now time.Duration, _ []float64, weights []int) {
			if bad := weightsInfeasible(weights, core.DefaultUnits); bad != "" {
				mu.Lock()
				infeasible = append(infeasible, fmt.Sprintf("t=%v: %s", now, bad))
				mu.Unlock()
			}
		}
	}
	region, err := NewRegion(cfg)
	if err != nil {
		fail("build region: %v", err)
		return
	}

	stop := make(chan struct{})
	var injector sync.WaitGroup
	if len(timed) > 0 {
		injector.Add(1)
		go func() {
			defer injector.Done()
			wait := func(d time.Duration) bool {
				tm := time.NewTimer(d)
				defer tm.Stop()
				select {
				case <-stop:
					return false
				case <-tm.C:
					return true
				}
			}
			for _, f := range timed {
				if !wait(f.after) {
					return
				}
				if heal := inject(f); heal != nil {
					healed := wait(f.hold)
					heal()
					if !healed {
						return
					}
				}
			}
		}()
	}
	start := time.Now()
	res, err := region.Run()
	close(stop)
	injector.Wait()

	mu.Lock()
	defer mu.Unlock()
	t.Logf("%d of %d released in %v, %d faults fired, events %v, %d deduped, longest release gap %v",
		res.Released, p.tuples, time.Since(start).Round(time.Millisecond), fired.Load(),
		events, res.Deduped, longestGap.Round(time.Millisecond))
	if err != nil {
		fail("region failed after events %v: %v", events, err)
		return
	}
	if res.Released != p.tuples || !res.OrderPreserved {
		fail("released %d of %d, ordered=%v", res.Released, p.tuples, res.OrderPreserved)
	}
	if released != p.tuples {
		fail("sink saw %d releases, want %d", released, p.tuples)
	}
	if badRelease != "" {
		fail("%s", badRelease)
	}
	if len(infeasible) > 0 {
		fail("weight invariant violated %d times: %s", len(infeasible), strings.Join(infeasible, "; "))
	}
	if p.maxGap > 0 && longestGap > p.maxGap {
		fail("longest release gap %v exceeded the recovery bound %v", longestGap, p.maxGap)
	}
	if q := events["quarantine"]; p.workers == 1 && q > 0 {
		fail("the only worker was quarantined %d times", q)
	}
	if fired.Load() == 0 {
		fail("no fault fired; the run proved nothing")
	}
}

// trialPlan draws a short trial: one stall, drip or kill on a random worker
// at a random point of a 300–800-tuple stream, under a 30 ms stall window.
func trialPlan(seed int64) faultPlan {
	rng := rand.New(rand.NewSource(seed))
	workers := 2 + rng.Intn(3)
	tuples := uint64(300 + rng.Intn(500))
	kind := []faultKind{faultStall, faultDrip, faultKill}[rng.Intn(3)]
	victim := rng.Intn(workers)
	at := uint64(rng.Intn(int(tuples)))
	hold := time.Duration(20+rng.Intn(60)) * time.Millisecond
	return faultPlan{
		seed: seed, workers: workers, tuples: tuples,
		sample: 10 * time.Millisecond,
		rec: RecoveryConfig{
			WatermarkInterval: time.Millisecond,
			StallWindow:       30 * time.Millisecond,
			MaxReadmits:       -1,
			Redial:            &transport.RedialPolicy{Base: 2 * time.Millisecond, Max: 20 * time.Millisecond, Jitter: 0.2},
		},
		to:     Timeouts{IO: time.Second, ControlRead: 5 * time.Second, SendStall: 100 * time.Millisecond},
		faults: []fault{{kind: kind, victim: victim, at: at, hold: hold}},
	}
}

// chaosPlan draws a balanced region of 2–5 workers that loses one worker's
// links once, for good or until a redial, at a run of 1–64 tuples, under the
// default stall window.
func chaosPlan(seed int64) faultPlan {
	rng := rand.New(rand.NewSource(seed))
	workers := 2 + rng.Intn(4)
	tuples := uint64(6000 + rng.Intn(6000))
	victim := rng.Intn(workers)
	permanent := rng.Intn(2) == 0
	at := tuples/5 + uint64(rng.Int63n(int64(tuples/2)))
	batch := 1 + rng.Intn(64)
	p := faultPlan{
		seed: seed, workers: workers, tuples: tuples, batch: batch, balanced: true,
		sample: 20 * time.Millisecond,
		rec: RecoveryConfig{
			WatermarkInterval: 5 * time.Millisecond,
			Redial:            &transport.RedialPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		},
		faults: []fault{{kind: faultKill, victim: victim, at: at}},
	}
	if permanent {
		p.rec = RecoveryConfig{WatermarkInterval: 5 * time.Millisecond, DisableRedial: true}
		p.faults[0].kind = faultKillDead
	}
	return p
}

// soakPlan draws a paced soak: a stall, drip or kill on a random worker
// every every/2 to 3·every/2, stalls and drips held 250 ms, over three times
// the paced stream's length so faults keep firing through the drain.
func soakPlan(seed int64, workers int, tuples uint64, every, maxGap time.Duration) faultPlan {
	const rate = 5000
	p := faultPlan{
		seed: seed, workers: workers, tuples: tuples, rate: rate,
		sample: 20 * time.Millisecond,
		rec: RecoveryConfig{
			WatermarkInterval: 2 * time.Millisecond,
			StallWindow:       150 * time.Millisecond,
			MaxReadmits:       -1,
			Redial:            &transport.RedialPolicy{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.2},
		},
		to:     Timeouts{IO: time.Second, ControlRead: 5 * time.Second, SendStall: 400 * time.Millisecond},
		maxGap: maxGap,
	}
	rng := rand.New(rand.NewSource(seed))
	horizon := 3 * time.Duration(tuples) * time.Second / rate
	for span := time.Duration(0); span < horizon; {
		f := fault{after: every/2 + time.Duration(rng.Int63n(int64(every)))}
		f.victim = rng.Intn(workers)
		f.kind = []faultKind{faultStall, faultDrip, faultKill}[rng.Intn(3)]
		if f.kind != faultKill {
			f.hold = 250 * time.Millisecond
		}
		span += f.after + f.hold
		p.faults = append(p.faults, f)
	}
	return p
}

// TestFaultPlans runs every fault scenario through runFaultPlan:
//
//   - trials: 304 short trials (48 with -short), one fault each, eight
//     shards in parallel; `make trials` counts their failures;
//   - chaos: four balanced regions that lose a worker mid-stream;
//   - degraded: a throttled, delayed link and no failure;
//   - pause: 1–3 workers all paused five stall windows together; the stall
//     check never quarantines the last live worker, so the region waits it
//     out (the wall clock is the subject here, so the pause is a real
//     sleep);
//   - soak: a paced 16-worker stream under a stall/drip/kill every ~350 ms,
//     its release gap bounded by 6 s;
//   - long: the same at 16, 32 and 64 workers, minutes long, with
//     SOAK_FULL=1 (`make soak`).
func TestFaultPlans(t *testing.T) {
	// The soak is paced, so mostly idle: it runs alongside the other rows,
	// not after them.
	soak := make(chan struct{})
	go func() {
		defer close(soak)
		t.Run("soak", func(t *testing.T) {
			if testing.Short() {
				t.Skip("soak runs are not short")
			}
			// The gap bound is generous: detection (stall window or send
			// stall) plus replay plus redial, with scheduling noise on top.
			runFaultPlan(t, soakPlan(1, 16, 40_000, 350*time.Millisecond, 6*time.Second))
		})
	}()
	defer func() { <-soak }()
	t.Run("trials", func(t *testing.T) {
		trials := 300
		if testing.Short() {
			trials = 48
		}
		const shards = 8
		per := (trials + shards - 1) / shards
		for s := 0; s < shards; s++ {
			t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
				t.Parallel()
				for i := 0; i < per && !t.Failed(); i++ {
					runFaultPlan(t, trialPlan(int64(s*1000+i)))
				}
			})
		}
	})
	t.Run("chaos", func(t *testing.T) {
		if testing.Short() {
			t.Skip("randomized chaos plans skipped in short mode")
		}
		for _, seed := range []int64{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runFaultPlan(t, chaosPlan(seed)) })
		}
	})
	t.Run("degraded", func(t *testing.T) {
		runFaultPlan(t, faultPlan{
			workers: 2, tuples: 4000,
			sample: 20 * time.Millisecond,
			rec:    RecoveryConfig{WatermarkInterval: 5 * time.Millisecond},
			faults: []fault{{kind: faultDegrade, victim: 0}},
		})
	})
	t.Run("pause", func(t *testing.T) {
		const window = 30 * time.Millisecond
		for _, n := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
				runFaultPlan(t, faultPlan{
					workers: n, tuples: 3000,
					sample: 10 * time.Millisecond,
					rec:    RecoveryConfig{WatermarkInterval: time.Millisecond, StallWindow: window, MaxReadmits: -1},
					faults: []fault{{kind: faultPause, at: 1000, hold: 5 * window}},
				})
			})
		}
	})
	t.Run("long", func(t *testing.T) {
		if os.Getenv("SOAK_FULL") == "" {
			t.Skip("set SOAK_FULL=1 (or run `make soak`) for the minutes-long soak")
		}
		for _, sc := range []struct {
			workers int
			tuples  uint64
		}{{16, 300_000}, {32, 300_000}, {64, 400_000}} {
			t.Run(fmt.Sprintf("workers%d", sc.workers), func(t *testing.T) {
				runFaultPlan(t, soakPlan(int64(sc.workers), sc.workers, sc.tuples, 300*time.Millisecond, 8*time.Second))
			})
		}
	})
}
