package runtime

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"streambalance/internal/chaos"
	"streambalance/internal/core"
	"streambalance/internal/schedule"
	"streambalance/internal/sim"
	"streambalance/internal/transport"
)

// keyed_equiv_test.go — randomized trials of the keyed pipeline: for random
// skew, hot keys, key churn, batch/recv/ring sizes down to 1, every router,
// both transports, with and without the combiner, and (on TCP) mid-run worker
// crashes with replay, the region must release an ordered exactly-once
// stream whose per-key aggregated values match the source exactly. This is
// the correctness net under the PR's perf work: combining may only move
// values into carriers, never lose, duplicate or reorder them.

type keyedTrial struct {
	workers     int
	tuples      uint64
	batch       int
	ringCap     int
	mergerQueue int
	keys        int
	alpha       float64
	hotShare    float64
	churn       uint64
	router      string
	balanced    bool
	combine     bool
	transport   TransportKind
	crash       bool
	payloadLen  int
}

func randomKeyedTrial(rng *rand.Rand) keyedTrial {
	ringCaps := []int{1, 1, 2, 3, 5, 8, 64}
	queues := []int{4, 16, 64}
	alphas := []float64{0, 0.8, 1.1, 1.5}
	routers := []string{"hash", "pkg", "dchoices"}
	tr := keyedTrial{
		workers: 1 + rng.Intn(4),
		tuples:  uint64(60 + rng.Intn(300)),
		batch:   1 + rng.Intn(8),
	}
	// This draw once chose a receive-pass cap; it stays so that each seed
	// still runs the trial it always ran.
	_ = rng.Intn(9)
	tr.ringCap = ringCaps[rng.Intn(len(ringCaps))]
	tr.mergerQueue = queues[rng.Intn(len(queues))]
	tr.keys = 1 + rng.Intn(50)
	tr.alpha = alphas[rng.Intn(len(alphas))]
	tr.router = routers[rng.Intn(len(routers))]
	tr.balanced = rng.Intn(3) == 0
	tr.combine = rng.Intn(2) == 0
	tr.payloadLen = 8 + rng.Intn(17)
	if rng.Intn(4) == 0 {
		tr.hotShare = 0.5 + 0.4*rng.Float64()
	}
	if rng.Intn(4) == 0 {
		tr.churn = uint64(20 + rng.Intn(100))
	}
	switch rng.Intn(3) {
	case 0:
		tr.transport = TransportInproc
	default:
		tr.transport = TransportTCP
	}
	// Crash trials: TCP only (recovery is a remote-process protocol), at
	// least two workers so survivors exist, and a longer stream so the kill
	// lands mid-flight with tuples still unreleased.
	if tr.transport == TransportTCP && tr.workers >= 2 && rng.Intn(6) == 0 {
		tr.crash = true
		tr.tuples = uint64(1500 + rng.Intn(1500))
	}
	return tr
}

func trialRouter(t *testing.T, name string, n int) schedule.KeyRouter {
	t.Helper()
	var r schedule.KeyRouter
	var err error
	switch name {
	case "hash":
		r, err = schedule.NewHashRouter(n)
	case "pkg":
		r, err = schedule.NewPKGRouter(n)
	case "dchoices":
		r, err = schedule.NewDChoicesRouter(n, schedule.DefaultDChoices, 64)
	default:
		t.Fatalf("unknown trial router %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// keyedValue is the per-tuple value carried in the payload's first 8 bytes;
// varying it by seq makes lost or duplicated folds visible in the sums.
func keyedValue(seq uint64) uint64 { return seq%251 + 1 }

func keyedStreamFor(tr keyedTrial, seed int64) *sim.KeyedStream {
	ks := sim.NewZipfStream(tr.keys, tr.alpha, seed)
	ks.SetHotShare(tr.hotShare)
	ks.SetChurn(tr.churn)
	return ks
}

// runKeyedTrial executes one trial and checks every invariant.
func runKeyedTrial(t *testing.T, trial int, tr keyedTrial, seed int64) {
	t.Helper()
	ks := keyedStreamFor(tr, seed)
	ops := make([]Operator, tr.workers)
	for i := range ops {
		ops[i] = Identity()
	}
	var mu sync.Mutex
	var seqs []uint64
	sums := make(map[uint64]uint64)
	var proxies []*chaos.Proxy
	killed := make(chan struct{})
	cfg := RegionConfig{
		Transport: tr.transport,
		Operators: ops,
		KeyedSource: func(seq uint64) (uint64, []byte, bool) {
			if tr.crash && seq == tr.tuples/3 {
				select {
				case <-killed:
				default:
					proxies[0].SetReject(true)
					proxies[0].KillActive()
					close(killed)
				}
			}
			if seq >= tr.tuples {
				return 0, nil, false
			}
			p := make([]byte, tr.payloadLen)
			binary.LittleEndian.PutUint64(p, keyedValue(seq))
			for i := 8; i < len(p); i++ {
				p[i] = byte(seq)
			}
			return ks.Key(seq), p, true
		},
		Router:         trialRouter(t, tr.router, tr.workers),
		BatchSize:      tr.batch,
		RingCap:        tr.ringCap,
		MergerQueue:    tr.mergerQueue,
		SampleInterval: 20 * time.Millisecond,
		Sink: func(tp transport.Tuple, conn int) {
			mu.Lock()
			seqs = append(seqs, tp.Seq)
			if len(tp.Payload) >= 8 {
				sums[tp.Key] += binary.LittleEndian.Uint64(tp.Payload)
			}
			mu.Unlock()
		},
	}
	if tr.combine {
		cfg.Combiner = SumCombiner()
	}
	if tr.balanced {
		bal, err := core.NewBalancer(core.Config{Connections: tr.workers})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Balancer = bal
	}
	if tr.crash {
		cfg.Recovery = RecoveryConfig{
			Enabled:           true,
			WatermarkInterval: 5 * time.Millisecond,
			DisableRedial:     true,
		}
		proxies, cfg.WrapWorkerAddr = chaosProxies(t, tr.workers)
	}
	region, err := NewRegion(cfg)
	if err != nil {
		t.Fatalf("trial %d (%+v): %v", trial, tr, err)
	}
	defer closeProxies(proxies)
	res, err := region.Run()
	if err != nil {
		t.Fatalf("trial %d (%+v): run: %v", trial, tr, err)
	}

	if !res.OrderPreserved {
		t.Fatalf("trial %d (%+v): order broken", trial, tr)
	}
	if res.Released+res.CombinedReleased != tr.tuples {
		t.Fatalf("trial %d (%+v): released %d + combined %d, want %d total",
			trial, tr, res.Released, res.CombinedReleased, tr.tuples)
	}
	if !tr.combine {
		if res.CombinedReleased != 0 || res.CombinerHits != 0 {
			t.Fatalf("trial %d (%+v): combiner disabled but combined=%d hits=%d",
				trial, tr, res.CombinedReleased, res.CombinerHits)
		}
	} else if tr.crash {
		// A crashed carrier's absorbed members are replayed Solo and release
		// individually, so hits may exceed combined releases — never trail.
		if res.CombinedReleased > res.CombinerHits {
			t.Fatalf("trial %d (%+v): combined releases %d exceed combiner hits %d",
				trial, tr, res.CombinedReleased, res.CombinerHits)
		}
	} else if res.CombinedReleased != res.CombinerHits {
		t.Fatalf("trial %d (%+v): combined releases %d != combiner hits %d",
			trial, tr, res.CombinedReleased, res.CombinerHits)
	}

	mu.Lock()
	defer mu.Unlock()
	if uint64(len(seqs)) != res.Released {
		t.Fatalf("trial %d (%+v): sink saw %d tuples, result says %d released",
			trial, tr, len(seqs), res.Released)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("trial %d (%+v): release %d seq %d after seq %d (not strictly increasing)",
				trial, tr, i, seqs[i], seqs[i-1])
		}
	}
	if !tr.combine {
		for i, s := range seqs {
			if s != uint64(i) {
				t.Fatalf("trial %d (%+v): uncombined release %d has seq %d, want contiguous", trial, tr, i, s)
			}
		}
	}
	// Per-key aggregation correctness: re-derive the expected sums from an
	// identical generator and compare exactly. Combining may only move
	// values into carriers of the same key.
	expect := make(map[uint64]uint64)
	ref := keyedStreamFor(tr, seed)
	for seq := uint64(0); seq < tr.tuples; seq++ {
		expect[ref.Key(seq)] += keyedValue(seq)
	}
	if len(sums) != len(expect) {
		t.Fatalf("trial %d (%+v): sink saw %d distinct keys, want %d", trial, tr, len(sums), len(expect))
	}
	for key, want := range expect {
		if sums[key] != want {
			t.Fatalf("trial %d (%+v): key %d summed to %d, want %d", trial, tr, key, sums[key], want)
		}
	}
}

// TestKeyedEquivalence runs 300 randomized keyed trials across routers,
// transports, combiner on/off and crash/replay, checking ordered
// exactly-once release and exact per-key aggregation in each.
func TestKeyedEquivalence(t *testing.T) {
	const trials = 300
	const shards = 6
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for trial := s; trial < trials; trial += shards {
				rng := rand.New(rand.NewSource(int64(trial)*104729 + 17))
				tr := randomKeyedTrial(rng)
				runKeyedTrial(t, trial, tr, int64(trial)+1)
			}
		})
	}
}
