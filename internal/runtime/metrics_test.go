package runtime

// Metrics-consistency tests: the exported numbers must agree with the
// region's own ground truth, not merely move. A clean run obeys the
// conservation identity
//
//	sum(spe_splitter_tuples_sent_total) ==
//	    spe_merger_tuples_released_total + spe_splitter_replay_buffer_tuples
//
// (every sent tuple is either released or still retained for replay), and
// under chaos the sent total additionally covers the merger's dedup count.
// The transport totals are not copies: a scrape reads the splitter's own
// per-worker sums (retired connections' folded totals plus the live sender),
// so they equal Splitter.ConnStats exactly at any instant and RegionResult
// after the run. Counters must be monotone non-decreasing at every
// observation point, reconnections included — which holds by construction,
// because a dying connection is folded and removed in one critical section
// that the scrape also takes.

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/metrics"
)

// counterWatcher polls a set of counter families and records any backwards
// movement, the monotonicity violation a scraper would see.
type counterWatcher struct {
	reg   *metrics.Registry
	names []string

	mu         sync.Mutex
	last       map[string]float64
	violations []string
	stop       chan struct{}
	done       chan struct{}
}

func watchCounters(reg *metrics.Registry, names ...string) *counterWatcher {
	w := &counterWatcher{
		reg:   reg,
		names: names,
		last:  make(map[string]float64),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			w.observe()
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *counterWatcher) observe() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, name := range w.names {
		v, ok := w.reg.SumAcross(name)
		if !ok {
			continue
		}
		if prev := w.last[name]; v < prev {
			w.violations = append(w.violations,
				fmt.Sprintf("%s went backwards: %v -> %v", name, prev, v))
		}
		w.last[name] = v
	}
}

// finish stops polling, takes one last observation, and returns violations.
func (w *counterWatcher) finish() []string {
	close(w.stop)
	<-w.done
	w.observe()
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.violations...)
}

var monotoneCounters = []string{
	"spe_splitter_tuples_sent_total",
	"spe_splitter_blocking_seconds_total",
	"spe_splitter_send_would_block_total",
	"spe_merger_tuples_released_total",
	"spe_merger_deduped_total",
	"spe_balancer_rebalances_total",
	"spe_schedule_picks_total",
}

func mustSum(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	v, ok := reg.SumAcross(name)
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	return v
}

func TestMetricsConsistencyCleanRun(t *testing.T) {
	const (
		tuples         = 12000
		sampleInterval = 20 * time.Millisecond
	)
	// The run can finish inside one sample interval, so the source pauses
	// for two intervals once, mid-stream: the send loop calls the source, and
	// its next pass ticks however fast the rest of the run moves.
	constant := ConstantSource([]byte("payload"), tuples)
	source := func(seq uint64) ([]byte, bool) {
		if seq == tuples/2 {
			time.Sleep(2 * sampleInterval)
		}
		return constant(seq)
	}
	reg := metrics.New()
	rm := NewRegionMetrics(reg, metrics.NewTrace(1024))
	balancer, err := core.NewBalancer(core.Config{Connections: 2, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	var region *Region
	samples := 0
	region, err = NewRegion(RegionConfig{
		Operators:      []Operator{Identity(), Identity()},
		Source:         source,
		Balancer:       balancer,
		SampleInterval: sampleInterval,
		Recovery:       RecoveryConfig{Enabled: true, WatermarkInterval: 5 * time.Millisecond},
		Metrics:        rm,
		// OnSample runs on the send loop, so no send is in flight between
		// the two reads: mid-run, the scrape and ConnStats must agree
		// exactly, and the bound gauge with the bound the tick just set.
		OnSample: func(time.Duration, []float64, []int) {
			samples++
			for _, c := range region.splitter.conns {
				if got, _ := reg.Value("spe_splitter_conn_inflight_bound_tuples", "conn", fmt.Sprint(c.id)); got != float64(c.bound.Load()) {
					t.Errorf("mid-run conn %d: exported in-flight bound %v != send loop's %d", c.id, got, c.bound.Load())
				}
			}
			sent, blocking := region.splitter.ConnStats()
			for id := range sent {
				l := fmt.Sprint(id)
				if got, _ := reg.Value("spe_splitter_tuples_sent_total", "conn", l); got != float64(sent[id]) {
					t.Errorf("mid-run conn %d: exported sent %v != ConnStats %d", id, got, sent[id])
				}
				if got, _ := reg.Value("spe_splitter_blocking_seconds_total", "conn", l); math.Abs(got-blocking[id].Seconds()) > 1e-9 {
					t.Errorf("mid-run conn %d: exported blocking %vs != ConnStats %vs", id, got, blocking[id].Seconds())
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	watcher := watchCounters(reg, monotoneCounters...)
	res, err := region.Run()
	violations := watcher.finish()
	if err != nil {
		t.Fatalf("region failed: %v", err)
	}
	if res.Released != tuples {
		t.Fatalf("released %d, want %d", res.Released, tuples)
	}
	for _, v := range violations {
		t.Errorf("monotonicity violated: %s", v)
	}

	sent := mustSum(t, reg, "spe_splitter_tuples_sent_total")
	released := mustSum(t, reg, "spe_merger_tuples_released_total")
	retained := mustSum(t, reg, "spe_splitter_replay_buffer_tuples")
	if sent != released+retained {
		t.Fatalf("conservation identity broken: sent=%v released=%v retained=%v", sent, released, retained)
	}
	if released != tuples {
		t.Fatalf("released counter %v disagrees with region result %d", released, tuples)
	}
	if retained != 0 {
		t.Fatalf("replay buffer still holds %v tuples after a drained run", retained)
	}
	if wm := mustSum(t, reg, "spe_merger_watermark"); wm != tuples {
		t.Fatalf("watermark %v, want %v", wm, tuples)
	}
	// The exported sent counters must agree per connection with the
	// splitter's own accounting.
	var resSent int64
	for _, s := range res.PerConnSent {
		resSent += s
	}
	if sent != float64(resSent) {
		t.Fatalf("exported sent %v != RegionResult sent %d", sent, resSent)
	}
	// Blocking counters carry the paper's Section 3 signal; the exported
	// total is the splitter's own lifetime measurement, read at scrape time.
	var resBlocking time.Duration
	for _, d := range res.TotalBlocking {
		resBlocking += d
	}
	exported := mustSum(t, reg, "spe_splitter_blocking_seconds_total")
	if math.Abs(exported-resBlocking.Seconds()) > 1e-9 {
		t.Fatalf("exported blocking %vs != measured %vs", exported, resBlocking.Seconds())
	}
	if samples == 0 {
		t.Fatal("no sample interval elapsed: the mid-run equality was never checked")
	}
	if rb := mustSum(t, reg, "spe_balancer_rebalances_total"); rb < 1 {
		t.Fatalf("no rebalances exported over a balanced run (got %v)", rb)
	}
	if picks := mustSum(t, reg, "spe_schedule_picks_total"); picks < tuples {
		t.Fatalf("schedule picks %v < tuples sent %d", picks, tuples)
	}
}

func TestMetricsConsistencyUnderChaos(t *testing.T) {
	// A mid-run worker kill forces replays: the sent total now exceeds the
	// released total by the duplicates the merger dropped plus any tuples
	// that died in flight with the connection — so the identity becomes an
	// inequality chain, and the recovery counters must record the event.
	const tuples = 15000
	reg := metrics.New()
	tr := metrics.NewTrace(4096)
	rm := NewRegionMetrics(reg, tr)
	proxies, wrap := chaosProxies(t, 3)
	killed := make(chan struct{})
	balancer, err := core.NewBalancer(core.Config{Connections: 3, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{Identity(), Identity(), Identity()},
		Source: func(seq uint64) ([]byte, bool) {
			if seq == tuples/3 {
				select {
				case <-killed:
				default:
					proxies[1].SetReject(true)
					proxies[1].KillActive()
					close(killed)
				}
			}
			if seq >= tuples {
				return nil, false
			}
			return []byte("x"), true
		},
		Balancer:       balancer,
		SampleInterval: 20 * time.Millisecond,
		Recovery: RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 5 * time.Millisecond,
			DisableRedial:     true,
		},
		Metrics:        rm,
		WrapWorkerAddr: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	watcher := watchCounters(reg, monotoneCounters...)
	res, err := region.Run()
	violations := watcher.finish()
	if err != nil {
		t.Fatalf("region failed: %v", err)
	}
	if res.Released != tuples || !res.OrderPreserved {
		t.Fatalf("released=%d order=%v, want %d true", res.Released, res.OrderPreserved, tuples)
	}
	for _, v := range violations {
		t.Errorf("monotonicity violated across reconnection: %s", v)
	}

	sent := mustSum(t, reg, "spe_splitter_tuples_sent_total")
	released := mustSum(t, reg, "spe_merger_tuples_released_total")
	deduped := mustSum(t, reg, "spe_merger_deduped_total")
	if released != tuples {
		t.Fatalf("released counter %v, want %d", released, tuples)
	}
	if sent < released {
		t.Fatalf("sent %v < released %v under replay", sent, released)
	}
	if sent < released+deduped {
		t.Fatalf("sent %v cannot cover released %v + deduped %v", sent, released, deduped)
	}
	if float64(res.Deduped) != deduped {
		t.Fatalf("exported deduped %v != merger's count %d", deduped, res.Deduped)
	}
	if retained := mustSum(t, reg, "spe_splitter_replay_buffer_tuples"); retained != 0 {
		t.Fatalf("replay buffer still holds %v tuples after a drained run", retained)
	}
	if downs := mustSum(t, reg, "spe_recovery_worker_down_total"); downs < 1 {
		t.Fatalf("worker kill not recorded (downs=%v)", downs)
	}
	if replays := mustSum(t, reg, "spe_recovery_replays_total"); replays < 1 {
		t.Fatalf("replay not recorded (replays=%v)", replays)
	}
	// The decision trace must have recorded the failure and the rebalances
	// that followed it.
	var sawDown, sawRebalance bool
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case "down":
			sawDown = true
		case "rebalance":
			sawRebalance = true
		}
	}
	if !sawDown || !sawRebalance {
		t.Fatalf("trace missing events: down=%v rebalance=%v (of %d events)", sawDown, sawRebalance, tr.Len())
	}
}
