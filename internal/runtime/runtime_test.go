package runtime

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"streambalance/internal/core"
	"streambalance/internal/metrics"
	"streambalance/internal/transport"
)

func TestOperators(t *testing.T) {
	in := transport.Tuple{Seq: 7, Payload: []byte("x")}
	if got := Identity().Process(in); got.Seq != 7 || string(got.Payload) != "x" {
		t.Fatalf("Identity changed tuple: %+v", got)
	}
	doubled := OperatorFunc(func(tp transport.Tuple) transport.Tuple {
		tp.Seq *= 2
		return tp
	})
	if got := doubled.Process(in); got.Seq != 14 {
		t.Fatalf("OperatorFunc result seq = %d, want 14", got.Seq)
	}
}

func TestSpinOperator(t *testing.T) {
	op := NewSpinOperator(1000)
	if op.Multiplies() != 1000 {
		t.Fatalf("Multiplies = %d, want 1000", op.Multiplies())
	}
	in := transport.Tuple{Seq: 3, Payload: []byte("y")}
	if got := op.Process(in); got.Seq != in.Seq || string(got.Payload) != "y" {
		t.Fatalf("SpinOperator changed tuple: %+v", got)
	}
	op.SetMultiplies(5)
	if op.Multiplies() != 5 {
		t.Fatalf("Multiplies = %d after set, want 5", op.Multiplies())
	}
	// Cost must scale with the multiplier (coarse check, generous margin).
	cheap := NewSpinOperator(1_000)
	costly := NewSpinOperator(10_000_000)
	start := time.Now()
	cheap.Process(in)
	cheapTime := time.Since(start)
	start = time.Now()
	costly.Process(in)
	costlyTime := time.Since(start)
	if costlyTime < 10*cheapTime {
		t.Fatalf("10000x multiplies only %v vs %v: spin not costing", costlyTime, cheapTime)
	}
}

func TestRegionValidation(t *testing.T) {
	if _, err := NewRegion(RegionConfig{}); err == nil {
		t.Fatal("empty region config accepted")
	}
	if _, err := NewRegion(RegionConfig{Operators: []Operator{Identity()}}); err == nil {
		t.Fatal("region without source accepted")
	}
	if _, err := NewMerger(0, 0, func(transport.Tuple, int) {}); err == nil {
		t.Fatal("merger with zero workers accepted")
	}
	if _, err := NewMerger(1, 0, nil); err == nil {
		t.Fatal("merger without sink accepted")
	}
	if _, err := NewSplitter(SplitterConfig{}); err == nil {
		t.Fatal("splitter without workers accepted")
	}
	if _, err := NewSplitter(SplitterConfig{WorkerAddrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("splitter without source accepted")
	}
}

func TestRegionEndToEndOrdering(t *testing.T) {
	const tuples = 20_000
	var mu sync.Mutex
	var seqs []uint64
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{Identity(), Identity(), Identity()},
		Source:    ConstantSource([]byte("payload"), tuples),
		Sink: func(tp transport.Tuple, conn int) {
			mu.Lock()
			seqs = append(seqs, tp.Seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != tuples {
		t.Fatalf("released %d tuples, want %d", res.Released, tuples)
	}
	if !res.OrderPreserved {
		t.Fatal("sequential semantics violated")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("sink position %d got seq %d", i, seq)
		}
	}
	var sent int64
	for _, c := range res.PerConnSent {
		sent += c
	}
	if sent != tuples {
		t.Fatalf("per-conn sent sums to %d, want %d", sent, tuples)
	}
}

func TestRegionSkewedWorkReordersThroughMerger(t *testing.T) {
	// One worker is far more expensive: its tuples arrive at the merger
	// late, forcing genuine reordering, which the merger must hide.
	const tuples = 3_000
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{
			NewSpinOperator(200_000),
			NewSpinOperator(100),
			NewSpinOperator(100),
		},
		Source: ConstantSource([]byte("z"), tuples),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != tuples || !res.OrderPreserved {
		t.Fatalf("released=%d order=%v, want %d true", res.Released, res.OrderPreserved, tuples)
	}
	// On a many-core machine the heavy worker's connection accumulates the
	// most blocking; with fewer cores than workers the OS scheduler blurs
	// the attribution, so this is logged rather than asserted.
	t.Logf("blocking per connection: %v", res.TotalBlocking)
}

func TestRegionBalancerShiftsLoad(t *testing.T) {
	// With a balancer and one heavy worker, the splitter should send the
	// heavy connection substantially fewer tuples than the light ones.
	const tuples = 30_000
	balancer, err := core.NewBalancer(core.Config{Connections: 3, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	region, err := NewRegion(RegionConfig{
		Operators: []Operator{
			NewSpinOperator(500_000), // heavy: ~hundreds of µs per tuple
			NewSpinOperator(1_000),
			NewSpinOperator(1_000),
		},
		// The heavy worker acks slowly, so its connection sits at its
		// in-flight bound (DESIGN §4b) and the splitter's credit waits on
		// it are the blocking signal.
		Source:         ConstantSource(make([]byte, 256), tuples),
		Balancer:       balancer,
		SampleInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != tuples || !res.OrderPreserved {
		t.Fatalf("released=%d order=%v, want %d true", res.Released, res.OrderPreserved, tuples)
	}
	if res.PerConnSent[0]*2 >= res.PerConnSent[1]+res.PerConnSent[2] {
		t.Fatalf("per-conn sent %v: heavy worker not throttled", res.PerConnSent)
	}
}

// TestRegionChangePoints runs four slept-service workers in process and
// slows two of them tenfold mid-run: the splitter reads each worker's
// service rate from its credits, and the balancer marks a change point on
// each slowed connection within half a second of the shift (an interval
// counts for at most one connection, the one that held the splitter for
// half of it), and none on the two it left alone, which are underfed for a
// while.
func TestRegionChangePoints(t *testing.T) {
	const (
		tuples  = 40_000
		shiftAt = tuples / 2
		within  = 10 // sample intervals
	)
	ops := make([]*ServiceOperator, 4)
	operators := make([]Operator, len(ops))
	for j := range ops {
		ops[j] = NewServiceOperator(100 * time.Microsecond)
		operators[j] = ops[j]
	}
	balancer, err := core.NewBalancer(core.Config{Connections: len(ops), DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	// The source and OnSample both run on the splitter's send loop.
	ticks, shiftTick := 0, -1
	changes := make([][]int, len(ops)) // per connection, the ticks of its change points
	reg, trace := metrics.New(), metrics.NewTrace(4096)
	region, err := NewRegion(RegionConfig{
		Transport: TransportInproc,
		Operators: operators,
		Source: func(seq uint64) ([]byte, bool) {
			if seq == shiftAt {
				ops[0].SetService(time.Millisecond)
				ops[1].SetService(time.Millisecond)
				shiftTick = ticks
			}
			return []byte("payload"), seq < tuples
		},
		Balancer:       balancer,
		SampleInterval: 50 * time.Millisecond,
		BatchSize:      32,
		Metrics:        NewRegionMetrics(reg, trace),
		OnSample: func(time.Duration, []float64, []int) {
			ticks++
			for _, j := range balancer.ChangePoints() {
				changes[j] = append(changes[j], ticks)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := region.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != tuples || !res.OrderPreserved {
		t.Fatalf("released=%d order=%v, want %d true", res.Released, res.OrderPreserved, tuples)
	}
	t.Logf("shift at tick %d of %d; change points per connection at ticks %v", shiftTick, ticks, changes)
	traced := make([]int, len(ops))
	for _, ev := range trace.Events() {
		if ev.Kind == "change-point" {
			traced[ev.Conn]++
		}
	}
	for j, at := range changes {
		shifted := j < 2
		switch {
		case shifted && (len(at) == 0 || at[0] <= shiftTick || at[0] > shiftTick+within):
			t.Errorf("connection %d: change points at ticks %v, want the first within %d ticks after the shift at %d", j, at, within, shiftTick)
		case !shifted && len(at) > 0:
			t.Errorf("unshifted connection %d: change points at ticks %v (shift at %d)", j, at, shiftTick)
		}
		l := fmt.Sprint(j)
		if got, _ := reg.Value("spe_balancer_change_points_total", "conn", l); got != float64(len(at)) || traced[j] != len(at) {
			t.Errorf("connection %d: exported %v change points and traced %d, the balancer made %d", j, got, traced[j], len(at))
		}
		// 1 ms a tuple is 1 000 tuples/s; 100 µs is 10 000. An unshifted
		// worker may never have held the splitter for half an interval.
		want := 10_000.0
		if shifted {
			want = 1_000
		}
		if got, _ := reg.Value("spe_splitter_conn_service_rate", "conn", l); (shifted || got != 0) && (got < want/2 || got > want*2) {
			t.Errorf("connection %d: service rate %v, want about %v", j, got, want)
		}
	}
}

func TestMergerRejectsMissingSequence(t *testing.T) {
	m, err := NewMerger(1, 4, func(transport.Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], 0)
	if _, err := conn.Write(id[:]); err != nil {
		t.Fatal(err)
	}
	// Send seq 1, skipping 0, then close: the merger can never release.
	frame, err := transport.AppendFrame(nil, transport.Tuple{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := m.Wait(); err == nil {
		t.Fatal("merger accepted a stream with a missing sequence number")
	}
}

func TestMergerRejectsBadWorkerID(t *testing.T) {
	m, err := NewMerger(2, 4, func(transport.Tuple, int) {})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], 99)
	if _, err := conn.Write(id[:]); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err == nil {
		t.Fatal("merger accepted an out-of-range worker id")
	}
}

func TestConstantSource(t *testing.T) {
	src := ConstantSource([]byte("p"), 2)
	if _, ok := src(0); !ok {
		t.Fatal("tuple 0 should exist")
	}
	if _, ok := src(1); !ok {
		t.Fatal("tuple 1 should exist")
	}
	if _, ok := src(2); ok {
		t.Fatal("tuple 2 should not exist")
	}
	unbounded := ConstantSource(nil, 0)
	if _, ok := unbounded(1 << 40); !ok {
		t.Fatal("unbounded source ended")
	}
}

func TestServiceOperator(t *testing.T) {
	op := NewServiceOperator(5 * time.Millisecond)
	if op.Service() != 5*time.Millisecond {
		t.Fatalf("Service = %v, want 5ms", op.Service())
	}
	in := transport.Tuple{Seq: 9, Payload: []byte("d")}
	start := time.Now()
	out := op.Process(in)
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("Process returned after %v, want >= ~5ms", elapsed)
	}
	if out.Seq != in.Seq || string(out.Payload) != "d" {
		t.Fatalf("ServiceOperator changed tuple: %+v", out)
	}
	op.SetService(0)
	start = time.Now()
	op.Process(in)
	if elapsed := time.Since(start); elapsed > time.Millisecond {
		t.Fatalf("zero-service Process took %v", elapsed)
	}

	// Below the kernel's sleep granularity the mean holds: a sleep per
	// tuple would cost ~1 ms each, 1 000 of them over a second.
	op = NewServiceOperator(50 * time.Microsecond)
	start = time.Now()
	for seq := uint64(0); seq < 1000; seq++ {
		op.Process(transport.Tuple{Seq: seq})
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 250*time.Millisecond {
		t.Fatalf("1000 tuples at 50us took %v, want 40ms..250ms", elapsed)
	}
}

func TestRegionOnSampleCallback(t *testing.T) {
	var mu sync.Mutex
	var samples int
	var lastWeights []int
	balancer, err := core.NewBalancer(core.Config{Connections: 2, DecayEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	region, err := NewRegion(RegionConfig{
		Operators:      []Operator{NewServiceOperator(50 * time.Microsecond), NewServiceOperator(50 * time.Microsecond)},
		Source:         ConstantSource(make([]byte, 64), 8000),
		Balancer:       balancer,
		SampleInterval: 20 * time.Millisecond,
		OnSample: func(now time.Duration, rates []float64, weights []int) {
			mu.Lock()
			samples++
			lastWeights = append([]int(nil), weights...)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := region.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if samples == 0 {
		t.Fatal("OnSample never fired")
	}
	sum := 0
	for _, w := range lastWeights {
		sum += w
	}
	if sum != 1000 {
		t.Fatalf("sampled weights %v sum to %d, want 1000", lastWeights, sum)
	}
}
