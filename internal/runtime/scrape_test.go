package runtime

// Scrape-time reading: the registry holds no copy of the counts the data
// path keeps for itself — it calls into the splitter, merger and workers when
// someone scrapes. These tests scrape from a second goroutine while regions
// run (under -race in CI's race-data-path job) and check what that design
// promises: every *_total is monotone at every scrape, a scrape never waits
// on the data path, and the numbers are exact once the run has ended.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/metrics"
	"streambalance/internal/transport"
)

// scraper renders and flattens the registry every millisecond, recording any
// *_total series that moved backwards between two scrapes. A scrape is not
// atomic across families, so nothing is compared between them here.
type scraper struct {
	reg  *metrics.Registry
	stop chan struct{}
	done chan struct{}

	mu         sync.Mutex
	last       map[string]float64
	scrapes    int
	violations []string
}

func startScraper(reg *metrics.Registry) *scraper {
	s := &scraper{reg: reg, last: make(map[string]float64), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			s.scrape()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *scraper) scrape() {
	var buf bytes.Buffer
	err := s.reg.WritePrometheus(&buf)
	samples := s.reg.Samples()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrapes++
	if err != nil {
		s.violations = append(s.violations, "WritePrometheus: "+err.Error())
	}
	for _, sm := range samples {
		if strings.HasPrefix(sm.Name, "spe_splitter_conn_inflight") && sm.Value < 0 {
			s.violations = append(s.violations, fmt.Sprintf("%s{%s} is negative: %v", sm.Name, strings.Join(sm.LabelValues, ","), sm.Value))
		}
		if !strings.HasSuffix(sm.Name, "_total") {
			continue
		}
		key := sm.Name + "{" + strings.Join(sm.LabelValues, ",") + "}"
		if prev := s.last[key]; sm.Value < prev {
			s.violations = append(s.violations, fmt.Sprintf("%s went backwards: %v -> %v", key, prev, sm.Value))
		}
		s.last[key] = sm.Value
	}
}

// finish stops the scraper, scrapes once more, and reports what it saw.
func (s *scraper) finish(t *testing.T) {
	t.Helper()
	close(s.stop)
	<-s.done
	s.scrape()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scrapes < 3 {
		t.Errorf("only %d scrapes overlapped the run", s.scrapes)
	}
	for _, v := range s.violations {
		t.Errorf("scrape: %s", v)
	}
}

// checkExactAtEnd asserts the identities that must hold exactly once a run
// has ended: every exported total equals the component's own count.
func checkExactAtEnd(t *testing.T, reg *metrics.Registry, res RegionResult, tuples uint64) {
	t.Helper()
	if res.Released != tuples || !res.OrderPreserved {
		t.Fatalf("released=%d order=%v, want %d true", res.Released, res.OrderPreserved, tuples)
	}
	if got := mustSum(t, reg, "spe_merger_tuples_released_total"); got != float64(tuples) {
		t.Errorf("exported released %v, want %d", got, tuples)
	}
	if got := mustSum(t, reg, "spe_merger_watermark"); got != float64(tuples) {
		t.Errorf("exported watermark %v, want %d", got, tuples)
	}
	if got := mustSum(t, reg, "spe_merger_deduped_total"); got != float64(res.Deduped) {
		t.Errorf("exported deduped %v != merger's %d", got, res.Deduped)
	}
	var blocking time.Duration
	for id := range res.PerConnSent {
		l := fmt.Sprint(id)
		if got, _ := reg.Value("spe_splitter_tuples_sent_total", "conn", l); got != float64(res.PerConnSent[id]) {
			t.Errorf("conn %d: exported sent %v != splitter's %d", id, got, res.PerConnSent[id])
		}
		blocking += res.TotalBlocking[id]
	}
	if got := mustSum(t, reg, "spe_splitter_blocking_seconds_total"); math.Abs(got-blocking.Seconds()) > 1e-9 {
		t.Errorf("exported blocking %vs != measured %vs", got, blocking.Seconds())
	}
	sent := mustSum(t, reg, "spe_splitter_tuples_sent_total")
	if floor := float64(tuples) + float64(res.Deduped); sent < floor {
		t.Errorf("sent %v cannot cover released %d + deduped %d", sent, tuples, res.Deduped)
	}
	if got := mustSum(t, reg, "spe_splitter_replay_buffer_tuples"); got != 0 {
		t.Errorf("replay buffer still holds %v tuples after a drained run", got)
	}
}

func TestScrapeWhileRunning(t *testing.T) {
	t.Run("tcp-recovery-kill-rejoin", func(t *testing.T) {
		const tuples = 30000
		reg := metrics.New()
		rm := NewRegionMetrics(reg, metrics.NewTrace(1024))
		proxies, wrap := chaosProxies(t, 3)
		balancer, err := core.NewBalancer(core.Config{Connections: 3, DecayEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		// killed and rejoined are touched only on the send loop (Source and
		// OnConnEvent both run there).
		killed, rejoined, paced := false, false, 0
		region, err := NewRegion(RegionConfig{
			Operators: []Operator{Identity(), Identity(), Identity()},
			Source: func(seq uint64) ([]byte, bool) {
				if seq == tuples/3 && !killed {
					// Sever worker 1's links; the proxy keeps accepting, so
					// the splitter's redial brings it back.
					proxies[1].KillActive()
					killed = true
				}
				if killed && !rejoined && paced < 20000 {
					// Keep the stream open until the worker is back, so the
					// scrapes straddle fold, removal and rejoin.
					paced++
					time.Sleep(100 * time.Microsecond)
				}
				if seq >= tuples {
					return nil, false
				}
				return []byte("x"), true
			},
			OnConnEvent: func(ev ConnEvent) {
				if ev.Kind == "rejoin" {
					rejoined = true
				}
			},
			Balancer:       balancer,
			SampleInterval: 10 * time.Millisecond,
			BatchSize:      16,
			Recovery: RecoveryConfig{
				Enabled:           true,
				WatermarkInterval: 5 * time.Millisecond,
				Redial:            &transport.RedialPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			},
			Metrics:        rm,
			WrapWorkerAddr: wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		sc := startScraper(reg)
		res, err := region.Run()
		sc.finish(t)
		if err != nil {
			t.Fatalf("region failed: %v", err)
		}
		checkExactAtEnd(t, reg, res, tuples)
		if downs := mustSum(t, reg, "spe_recovery_worker_down_total"); downs < 1 {
			t.Errorf("kill not recorded (downs=%v)", downs)
		}
		if rejoins := mustSum(t, reg, "spe_recovery_rejoins_total"); rejoins < 1 {
			t.Errorf("rejoin not recorded (rejoins=%v)", rejoins)
		}
	})

	t.Run("inproc", func(t *testing.T) {
		const tuples = 60000
		reg := metrics.New()
		balancer, err := core.NewBalancer(core.Config{Connections: 3, DecayEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		region, err := NewRegion(RegionConfig{
			Transport:      TransportInproc,
			Operators:      []Operator{Identity(), NewSpinOperator(2000), Identity()},
			Source:         ConstantSource([]byte("payload"), tuples),
			Balancer:       balancer,
			SampleInterval: 10 * time.Millisecond,
			BatchSize:      16,
			RingCap:        64,
			Metrics:        NewRegionMetrics(reg, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		sc := startScraper(reg)
		res, err := region.Run()
		sc.finish(t)
		if err != nil {
			t.Fatalf("region failed: %v", err)
		}
		checkExactAtEnd(t, reg, res, tuples)
		if sent := mustSum(t, reg, "spe_splitter_tuples_sent_total"); sent != tuples {
			t.Errorf("in-proc sent %v, want exactly %d (no replays)", sent, tuples)
		}
		// Every worker acked all it forwarded before it exited, and the
		// 10 ms ticks measured a rate, so every connection was bounded.
		for id := 0; id < 3; id++ {
			l := fmt.Sprint(id)
			if got, _ := reg.Value("spe_splitter_conn_inflight_tuples", "conn", l); got != 0 {
				t.Errorf("conn %d: %v tuples in flight after the run", id, got)
			}
			if got, _ := reg.Value("spe_splitter_conn_inflight_bound_tuples", "conn", l); got < 2*16 {
				t.Errorf("conn %d: in-flight bound %v, want at least its floor of two runs", id, got)
			}
		}
	})
}

// TestScrapeDoesNotWaitOnParkedSend stalls one worker until the splitter's
// flush to it is parked — the one sending thread is then blocked for as long
// as the stall lasts — and requires a full scrape to return regardless: the
// scrape takes the splitter's mutex, which the send loop never holds across a
// flush.
func TestScrapeDoesNotWaitOnParkedSend(t *testing.T) {
	for _, kind := range []TransportKind{TransportTCP, TransportInproc} {
		t.Run(string(kind), func(t *testing.T) {
			const tuples = 6000
			reg := metrics.New()
			gate := make(chan struct{})
			var open sync.Once
			release := func() { open.Do(func() { close(gate) }) }
			defer release()
			stalled := OperatorFunc(func(tp transport.Tuple) transport.Tuple {
				<-gate
				return tp
			})
			region, err := NewRegion(RegionConfig{
				Transport:      kind,
				Operators:      []Operator{stalled, Identity()},
				Source:         ConstantSource(bytes.Repeat([]byte("p"), 512), tuples),
				SampleInterval: 10 * time.Millisecond,
				RingCap:        16,
				BatchSize:      8,
				Metrics:        NewRegionMetrics(reg, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				res RegionResult
				err error
			}
			ran := make(chan outcome, 1)
			go func() {
				res, err := region.Run()
				ran <- outcome{res, err}
			}()

			// Parked: the send to worker 0 elected to block and nothing has
			// left the splitter since.
			deadline := time.Now().Add(10 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Fatal("the splitter never parked on the stalled worker")
				}
				wb, _ := reg.Value("spe_splitter_send_would_block_total", "conn", "0")
				before := mustSum(t, reg, "spe_splitter_tuples_sent_total")
				time.Sleep(20 * time.Millisecond)
				if wb >= 1 && before == mustSum(t, reg, "spe_splitter_tuples_sent_total") {
					break
				}
			}
			scraped := make(chan error, 1)
			go func() {
				var buf bytes.Buffer
				err := reg.WritePrometheus(&buf)
				reg.Samples()
				scraped <- err
			}()
			select {
			case err := <-scraped:
				if err != nil {
					t.Fatalf("scrape: %v", err)
				}
			case <-time.After(100 * time.Millisecond):
				t.Fatal("a scrape waited on the parked send")
			}
			if mustSum(t, reg, "spe_merger_tuples_released_total") >= tuples {
				t.Fatal("the region finished: the flush was not parked during the scrape")
			}

			release()
			out := <-ran
			if out.err != nil {
				t.Fatalf("region failed: %v", out.err)
			}
			checkExactAtEnd(t, reg, out.res, tuples)
		})
	}
}

// TestIngestAgeMovesWithoutRecovery pins the ingest-age gauge in regions
// without recovery: the age is positive for an attached worker, grows while
// nothing arrives, and is 0 only for a worker id that never attached.
func TestIngestAgeMovesWithoutRecovery(t *testing.T) {
	const ageName = "spe_worker_last_ingest_age_seconds"
	for _, kind := range []TransportKind{TransportTCP, TransportInproc} {
		t.Run(string(kind), func(t *testing.T) {
			const pauseAt, tuples = 40, 50
			reg := metrics.New()
			midRun := make(chan struct{})
			paused := make(chan struct{})
			resume := make(chan struct{})
			region, err := NewRegion(RegionConfig{
				Transport: kind,
				Operators: []Operator{NewServiceOperator(2 * time.Millisecond), NewServiceOperator(2 * time.Millisecond)},
				Source: func(seq uint64) ([]byte, bool) {
					switch seq {
					case pauseAt / 2:
						close(midRun)
					case pauseAt:
						close(paused)
						<-resume
					}
					return []byte("x"), seq < tuples
				},
				Metrics: NewRegionMetrics(reg, nil),
			})
			if err != nil {
				t.Fatal(err)
			}
			ran := make(chan error, 1)
			go func() {
				_, err := region.Run()
				ran <- err
			}()
			ages := func() [2]float64 {
				var a [2]float64
				for id := range a {
					v, ok := reg.Value(ageName, "conn", fmt.Sprint(id))
					if !ok {
						t.Fatalf("%s{conn=%d} not exported", ageName, id)
					}
					a[id] = v
				}
				return a
			}
			waitWatermark := func(want float64) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); mustSum(t, reg, "spe_merger_watermark") < want; {
					if time.Now().After(deadline) {
						t.Fatalf("watermark never reached %v", want)
					}
					time.Sleep(time.Millisecond)
				}
			}
			<-midRun
			waitWatermark(2) // both workers have attached and delivered
			for id, a := range ages() {
				if a <= 0 {
					t.Errorf("mid-run: worker %d age %v, want > 0", id, a)
				}
			}
			// Once everything sent before the pause has been released,
			// nothing more arrives at the merger until the source resumes.
			<-paused
			waitWatermark(pauseAt)
			first := ages()
			time.Sleep(50 * time.Millisecond)
			second := ages()
			for id := range first {
				if grew := second[id] - first[id]; grew < 0.045 {
					t.Errorf("worker %d: age went %v -> %v over a 50 ms pause, want it to grow by the pause", id, first[id], second[id])
				}
			}
			close(resume)
			if err := <-ran; err != nil {
				t.Fatalf("region failed: %v", err)
			}
		})
	}

	t.Run("never-attached", func(t *testing.T) {
		reg := metrics.New()
		m, err := newMerger(2, 0, func(*transport.Tuple, int) {}, false)
		if err != nil {
			t.Fatal(err)
		}
		m.SetMetrics(NewRegionMetrics(reg, nil))
		tx, rx := transport.InprocPair(0)
		if err := m.AttachInproc(0, rx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		if a, _ := reg.Value(ageName, "conn", "0"); a <= 0 {
			t.Errorf("attached worker 0: age %v, want > 0", a)
		}
		if a, ok := reg.Value(ageName, "conn", "1"); !ok || a != 0 {
			t.Errorf("worker 1 never attached: age %v (exported=%v), want 0", a, ok)
		}
		tx.Close() // the reader sees EOF and exits; the merger never started
		m.Close()
	})
}
