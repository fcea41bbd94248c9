// Package soak runs long, randomized chaos schedules against a full
// recovery-enabled region and checks the straggler-defense invariants: every
// tuple released exactly once in order, and release gaps (merge stalls)
// bounded by the detection machinery rather than by the fault duration.
//
// The harness wires a chaos proxy in front of every worker connection and
// injects one fault at a time — Stall (accept, never drain), SlowDrip
// (trickle below the useful rate) or Kill (sever the links) — holding it for
// a while and then healing it, driven by a seeded RNG so failures reproduce.
package soak

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"streambalance/internal/chaos"
	"streambalance/internal/runtime"
	"streambalance/internal/transport"
)

// Config parameterizes one soak run.
type Config struct {
	// Workers is the region fan-out (and the number of chaos proxies).
	Workers int
	// Tuples bounds the stream length.
	Tuples uint64
	// Payload is the tuple payload size in bytes.
	Payload int
	// Rate paces the source in tuples/second so the run lasts long enough
	// for the fault schedule to actually fire (an unthrottled loopback
	// region drains tens of thousands of tuples in milliseconds). Default
	// 5000; negative disables pacing.
	Rate int
	// Seed drives the fault schedule; equal seeds reproduce equal runs.
	Seed int64
	// StallWindow is the splitter's merge-stall window.
	StallWindow time.Duration
	// SendStall is the sender-side stall bound (splitter and workers).
	SendStall time.Duration
	// FaultEvery is the mean time between injected faults.
	FaultEvery time.Duration
	// FaultHold is how long stall and drip faults persist before healing.
	FaultHold time.Duration
	// MaxReadmits is the quarantine circuit-breaker budget (negative =
	// unlimited, which soak runs want: faults heal, workers should always
	// come back).
	MaxReadmits int
	// Kinds selects the fault repertoire; empty means all of
	// "stall", "drip", "kill".
	Kinds []string
	// DripBytesPerSec is the SlowDrip rate (default 8 — slow enough that
	// one tuple takes longer than any realistic stall window).
	DripBytesPerSec int
}

// Summary reports what one soak run did and observed.
type Summary struct {
	Workers        int           `json:"workers"`
	Tuples         uint64        `json:"tuples"`
	Released       uint64        `json:"released"`
	OrderPreserved bool          `json:"order_preserved"`
	Deduped        uint64        `json:"deduped"`
	Faults         int           `json:"faults"`
	Downs          int           `json:"downs"`
	Replays        int           `json:"replays"`
	ReplayedTuples int           `json:"replayed_tuples"`
	Rejoins        int           `json:"rejoins"`
	Quarantines    int           `json:"quarantines"`
	Evictions      int           `json:"evictions"`
	Exhausted      int           `json:"redials_exhausted"`
	MaxReleaseGap  time.Duration `json:"max_release_gap_ns"`
	Elapsed        time.Duration `json:"elapsed_ns"`
	TuplesPerSec   float64       `json:"tuples_per_sec"`
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Tuples == 0 {
		c.Tuples = 50_000
	}
	if c.Payload <= 0 {
		c.Payload = 64
	}
	if c.Rate == 0 {
		c.Rate = 5000
	}
	if c.StallWindow <= 0 {
		c.StallWindow = 150 * time.Millisecond
	}
	if c.SendStall <= 0 {
		c.SendStall = 500 * time.Millisecond
	}
	if c.FaultEvery <= 0 {
		c.FaultEvery = 400 * time.Millisecond
	}
	if c.FaultHold <= 0 {
		c.FaultHold = 300 * time.Millisecond
	}
	if c.MaxReadmits == 0 {
		c.MaxReadmits = -1
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []string{"stall", "drip", "kill"}
	}
	if c.DripBytesPerSec <= 0 {
		c.DripBytesPerSec = 8
	}
	return c
}

// Run executes one soak schedule and returns its summary. The returned error
// is the region's terminal error; a healthy soak returns nil and a summary
// whose Released equals Tuples with order preserved.
func Run(cfg Config) (Summary, error) {
	cfg = cfg.withDefaults()
	sum := Summary{Workers: cfg.Workers, Tuples: cfg.Tuples}

	proxies := make([]*chaos.Proxy, cfg.Workers)
	defer func() {
		for _, p := range proxies {
			if p != nil {
				p.Close()
			}
		}
	}()

	ops := make([]runtime.Operator, cfg.Workers)
	for i := range ops {
		ops[i] = runtime.Identity()
	}

	var gapMu sync.Mutex
	var lastRelease time.Time
	var maxGap time.Duration

	var evMu sync.Mutex
	events := map[string]int{}
	var replayed int

	payload := make([]byte, cfg.Payload)
	source := runtime.ConstantSource(payload, cfg.Tuples)
	if cfg.Rate > 0 {
		// Pace in small batches: fine enough that faults land mid-stream,
		// coarse enough that the sleep overhead is negligible.
		const batch = 64
		pace := time.Duration(float64(batch) / float64(cfg.Rate) * float64(time.Second))
		base := source
		source = func(seq uint64) ([]byte, bool) {
			if seq > 0 && seq%batch == 0 {
				time.Sleep(pace)
			}
			return base(seq)
		}
	}
	region, err := runtime.NewRegion(runtime.RegionConfig{
		Operators:      ops,
		Source:         source,
		SampleInterval: 20 * time.Millisecond,
		Sink: func(t transport.Tuple, conn int) {
			now := time.Now()
			gapMu.Lock()
			if !lastRelease.IsZero() {
				if g := now.Sub(lastRelease); g > maxGap {
					maxGap = g
				}
			}
			lastRelease = now
			gapMu.Unlock()
		},
		OnConnEvent: func(ev runtime.ConnEvent) {
			evMu.Lock()
			events[ev.Kind]++
			if ev.Kind == "replay" {
				replayed += ev.Tuples
			}
			evMu.Unlock()
		},
		Recovery: runtime.RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 2 * time.Millisecond,
			StallWindow:       cfg.StallWindow,
			MaxReadmits:       cfg.MaxReadmits,
			Redial: &transport.RedialPolicy{
				Base:   5 * time.Millisecond,
				Max:    100 * time.Millisecond,
				Jitter: 0.2,
			},
		},
		Timeouts: runtime.Timeouts{
			Dial:         2 * time.Second,
			Handshake:    time.Second,
			Probe:        200 * time.Millisecond,
			ControlRead:  5 * time.Second,
			ControlWrite: time.Second,
			SendStall:    cfg.SendStall,
		},
		WrapWorkerAddr: func(worker int, addr string) string {
			p, perr := chaos.NewProxy(addr)
			if perr != nil {
				return addr // dial fails loudly later; never happens on loopback
			}
			proxies[worker] = p
			return p.Addr()
		},
	})
	if err != nil {
		return sum, fmt.Errorf("soak: build region: %w", err)
	}

	stopInj := make(chan struct{})
	var injWG sync.WaitGroup
	injWG.Add(1)
	go func() {
		defer injWG.Done()
		rng := rand.New(rand.NewSource(cfg.Seed))
		sleep := func(d time.Duration) bool {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-stopInj:
				return false
			case <-t.C:
				return true
			}
		}
		for {
			// Jittered inter-fault gap around the configured mean.
			if !sleep(cfg.FaultEvery/2 + time.Duration(rng.Int63n(int64(cfg.FaultEvery)))) {
				return
			}
			p := proxies[rng.Intn(len(proxies))]
			if p == nil {
				continue
			}
			kind := cfg.Kinds[rng.Intn(len(cfg.Kinds))]
			evMu.Lock()
			sum.Faults++
			evMu.Unlock()
			switch kind {
			case "stall":
				p.SetStall(true)
				healed := sleep(cfg.FaultHold)
				p.SetStall(false)
				if !healed {
					return
				}
			case "drip":
				p.SetSlowDrip(cfg.DripBytesPerSec)
				healed := sleep(cfg.FaultHold)
				p.SetSlowDrip(0)
				if !healed {
					return
				}
			case "kill":
				p.KillActive()
			}
		}
	}()

	start := time.Now()
	res, runErr := region.Run()
	close(stopInj)
	injWG.Wait()

	sum.Released = res.Released
	sum.OrderPreserved = res.OrderPreserved
	sum.Deduped = res.Deduped
	sum.Elapsed = time.Since(start)
	if s := sum.Elapsed.Seconds(); s > 0 {
		sum.TuplesPerSec = float64(res.Released) / s
	}
	gapMu.Lock()
	sum.MaxReleaseGap = maxGap
	gapMu.Unlock()
	evMu.Lock()
	sum.Downs = events["down"]
	sum.Replays = events["replay"]
	sum.ReplayedTuples = replayed
	sum.Rejoins = events["rejoin"]
	sum.Quarantines = events["quarantine"]
	sum.Evictions = events["evicted"]
	sum.Exhausted = events["redial-exhausted"]
	evMu.Unlock()
	return sum, runErr
}
