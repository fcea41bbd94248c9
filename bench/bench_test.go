package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuarterAndPercentileHelpers(t *testing.T) {
	v := []float64{8, 1, 7, 2, 6, 3, 5, 4} // 1..8 shuffled
	if got := lowQuarterMean(v); got != 1.5 {
		t.Errorf("lowQuarterMean = %v, want 1.5 (mean of 1, 2)", got)
	}
	if got := lowQuarterMean([]float64{3, 9, 5}); got != 3 {
		t.Errorf("fewer than four values: quarter = %v, want the single best, 3", got)
	}
	asc := sorted(v)
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 4.5}, {100, 8}, {25, 2.75}, {10, 1.7}} {
		if got := percentile(asc, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of one value = %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(mean(nil)) {
		t.Error("empty input must give NaN, which the result check then refuses")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := iqrShare(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got := iqrShare([]float64{16, 1, 4, 2, 8}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("iqrShare = %v, want 10.5/4", got)
	}
}

// fakeClock lets the pacer tests decide how late every sleep wakes.
type fakeClock struct {
	now      int64
	late     int64 // added to every sleep
	sleptAt  []uint64
	current  uint64
	requests []time.Duration
}

func (c *fakeClock) pacer() *pacer {
	return &pacer{
		now: func() int64 { return c.now },
		sleep: func(d time.Duration) {
			c.sleptAt = append(c.sleptAt, c.current)
			c.requests = append(c.requests, d)
			c.now += int64(d) + c.late
		},
	}
}

func TestPacerWaitsOnlyOnBatchBoundaries(t *testing.T) {
	if burstTuples%batchSize != 0 {
		t.Fatalf("burst of %d is not a multiple of the splitter batch %d", burstTuples, batchSize)
	}
	c := &fakeClock{late: 70_000}
	p := c.pacer()
	for seq := uint64(0); seq < 10*burstTuples; seq++ {
		c.current = seq
		p.wait(seq)
		c.now += 100 // the splitter's own work per tuple
	}
	if len(c.sleptAt) != 9 {
		t.Fatalf("slept %d times over 10 bursts, want 9 (burst 0 is due at once)", len(c.sleptAt))
	}
	for _, seq := range c.sleptAt {
		if seq%burstTuples != 0 || seq%batchSize != 0 {
			t.Errorf("slept before tuple %d, which does not open a burst", seq)
		}
	}
}

func TestPacerScheduleAndOversleep(t *testing.T) {
	run := func(late int64) (origins []int64, p *pacer) {
		c := &fakeClock{now: 5_000_000, late: late}
		p = c.pacer()
		for seq := uint64(0); seq < 6*burstTuples; seq++ {
			o := p.wait(seq)
			if seq%burstTuples == 0 {
				origins = append(origins, o)
			}
			c.now += 50
		}
		return origins, p
	}
	a, _ := run(70_000)
	b, pb := run(70_000)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same inputs, different schedules: %v vs %v", a, b)
	}
	// Burst k is due at start + k*period; the origin adds the generator's
	// own lateness for that burst once, and only for that burst.
	for k, o := range a {
		want := int64(5_000_000) + int64(k)*int64(burstPeriod)
		if k > 0 {
			want += 70_000
		}
		if o != want {
			t.Errorf("burst %d origin = %d, want %d", k, o, want)
		}
	}
	for _, over := range pb.oversleep {
		if over != 70_000 {
			t.Errorf("recorded oversleep %d, want 70000", over)
		}
	}

	// A burst reached after its due time (the region pushed back) is not the
	// generator's lateness: no sleep, and the origin stays the due time.
	c := &fakeClock{}
	p := c.pacer()
	p.wait(0)
	c.now += 3 * int64(burstPeriod)
	if o := p.wait(burstTuples); o != int64(burstPeriod) {
		t.Errorf("late burst origin = %d, want its due time %d", o, int64(burstPeriod))
	}
	if len(c.requests) != 0 || len(p.oversleep) != 0 {
		t.Errorf("late burst slept %v and recorded oversleep %v, want neither", c.requests, p.oversleep)
	}
}

func TestSpanArithmetic(t *testing.T) {
	cases := []tupleSpans{
		{origin: 100, opIn: 150, opOut: 180, sink: 400},
		{origin: 100, opIn: 90, opOut: 95, sink: 400},   // operator stamps before the origin
		{origin: 100, opIn: 150, opOut: 900, sink: 400}, // exit stamp after the release
		{origin: 100, opIn: 300, opOut: 200, sink: 400}, // exit before entry
		{origin: 100, opIn: 150, opOut: 180, sink: 50},  // release before the origin
	}
	for _, s := range cases {
		root, child := s.durations()
		sum := int64(0)
		for i, c := range child {
			if c < 0 || c > root {
				t.Errorf("%+v: child %s = %d outside the root span %d", s, spanNames[i+1], c, root)
			}
			sum += c
		}
		// Self time is a span minus what its children cover; the children
		// tile the root, so the root's is nil.
		if self := root - sum; self != 0 {
			t.Errorf("%+v: children sum to %d, root is %d: root self time %d, want 0", s, sum, root, self)
		}
	}
	root, child := cases[0].durations()
	if root != 300 || child != [3]int64{50, 30, 220} {
		t.Errorf("in-order stamps: root %d children %v, want 300 and [50 30 220]", root, child)
	}

	// The decomposition at the median adds up by construction.
	var spans []tupleSpans
	for i := int64(0); i < 1000; i++ {
		spans = append(spans, tupleSpans{origin: 0, opIn: 10 + i, opOut: 10 + i + i%7, sink: 100 + 3*i})
	}
	r, c := medianDecomposition(spans)
	if math.Abs(c[0]+c[1]+c[2]-r) > 1e-6 {
		t.Errorf("median decomposition %v does not add up to %v", c, r)
	}
	if want := 100 + 3*499.5; math.Abs(r-want) > 3*50 {
		t.Errorf("median root = %v, want about %v", r, want)
	}
}

// benchmarkFile is BENCHMARK.json as far as the tests need it.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json runs for %v s, the code is sized for %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json gates %d metrics, the code %d", len(b.EndToEnd), len(gated))
	}
	for i, g := range gated {
		e := b.EndToEnd[i]
		if e.Name != g.name || e.Unit != g.unit || e.Bound != g.bound || (e.Better == "higher") != g.higher {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, the code %+v", i, e, g)
		}
	}
}

// mayBeZero lists the per-layer rows for which 0 is a legitimate reading.
var mayBeZero = map[string]bool{
	"bench.gen_oversleep_p50_us":              true, // closed loops never sleep
	"bench.gen_oversleep_p99_us":              true,
	"core.adapt_s":                            true, // no dip after the shift
	"runtime.region_stall_segments":           true,
	"runtime.splitter_blocked_share":          true, // paced: the splitter never waits on a send
	"runtime.region_tuples_per_s_iqr_pct":     true, // a smoke run has one reference segment
	"runtime.region_gc_pause_ms":              true,
	"runtime.splitter_would_block_per_ktuple": true, // paced: the buffers never fill
	"runtime.merger_parks_per_ktuple":         true,
	"runtime.merger_wakes_per_ktuple":         true,
	"transport.tcp_pipe_allocs_per_ktuple":    true,
	"transport.inproc_pipe_allocs_per_ktuple": true,
	"runtime.region_allocs_per_ktuple":        true,
	"runtime.region_alloc_bytes_per_tuple":    true,
}

// TestSmokeAllWorkloads runs every workload end to end, and the traced run of
// the two whose traced runs differ most (a CPU-bound one and hetero_shift,
// which is its own shift scenario), at about 1 % of the contract's size or
// less. It checks that the result line carries exactly the metrics
// BENCHMARK.json names, each finite and, unless 0 means something, non-zero.
// It asserts nothing about how fast anything is.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real regions for several seconds")
	}
	b := readBenchmarkFile(t)
	traceDir := t.TempDir()
	for _, c := range []struct {
		workload string
		trace    int
	}{
		{"tcp_sat", 0}, {"inproc_sat", 0}, {"paced_tcp", 0}, {"hetero_shift", 0},
		{"tcp_sat", 1}, {"hetero_shift", 1},
	} {
		var stdout, stderr bytes.Buffer
		o := options{workload: c.workload, seed: 7, seconds: 0.15, trace: c.trace, traceDir: traceDir}
		if c.workload == "hetero_shift" {
			o.seconds = 0.6 // its blocking comes in ~0.1 s lumps
		}
		if code := run(o, &stdout, &stderr); code != 0 {
			t.Fatalf("%s trace=%d: exit %d: %s", c.workload, c.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s trace=%d: last line is not a result: %v", c.workload, c.trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", c.workload, c.trace, res.Correct, res.Attempted, res.Failed)
		}
		want := map[string]string{}
		if c.trace == 0 {
			for _, e := range b.EndToEnd {
				want[e.Name] = e.Unit
			}
		} else {
			for _, e := range b.PerLayer {
				want[e.Name] = e.Unit
			}
		}
		for name, unit := range want {
			m, ok := res.Metrics[name]
			switch {
			case !ok:
				t.Errorf("%s trace=%d: metric %s missing", c.workload, c.trace, name)
			case m.Unit != unit:
				t.Errorf("%s trace=%d: metric %s has unit %q, BENCHMARK.json says %q", c.workload, c.trace, name, m.Unit, unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s trace=%d: metric %s = %v", c.workload, c.trace, name, m.Value)
			case m.Value == 0 && !mayBeZero[name]:
				t.Errorf("%s trace=%d: metric %s is zero", c.workload, c.trace, name)
			}
		}
		for name := range res.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s trace=%d: metric %s is printed but not in BENCHMARK.json", c.workload, c.trace, name)
			}
		}
		if c.trace == 1 {
			if _, err := os.Stat(traceDir + "/trace-" + c.workload + ".json"); err != nil {
				t.Errorf("%s: traced run left no span file: %v", c.workload, err)
			}
		}
	}
}

// TestCorruptedSinkCheckFailsTheCommand proves the correctness gate is live:
// when what the sink expects differs from what was sent in one payload of the
// pool, tuples are counted as failed, the counts are printed, no result line
// is, and the exit code is not 0.
func TestCorruptedSinkCheckFailsTheCommand(t *testing.T) {
	for _, name := range []string{"tcp_sat", "inproc_sat"} {
		var stdout, stderr bytes.Buffer
		o := options{workload: name, seed: 7, seconds: 0.24, corruptSink: true}
		if code := run(o, &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit 0 with a corrupted check; stdout %q", name, stdout.String())
		}
		var attempted, failed uint64
		if _, err := fmt.Sscanf(stdout.String(), "== "+name+": attempted=%d failed=%d\n", &attempted, &failed); err != nil {
			t.Errorf("%s: stdout does not give the counts: %q", name, stdout.String())
		}
		if failed == 0 || failed > attempted {
			t.Errorf("%s: attempted=%d failed=%d, want some but not more than all to fail", name, attempted, failed)
		}
		if strings.Contains(stdout.String(), "metrics") {
			t.Errorf("%s: printed a result despite failed tuples: %q", name, stdout.String())
		}
		if !strings.Contains(stderr.String(), "not released exactly once") {
			t.Errorf("%s: stderr does not name the failure: %q", name, stderr.String())
		}
	}
}

func TestPlanKeepsSegmentsAtOneSecond(t *testing.T) {
	for _, w := range workloads {
		p := planFor(w, runSeconds)
		if p.window < time.Second || p.segments < 1 {
			t.Errorf("%s at %d s: %d segments of %v", w.name, runSeconds, p.segments, p.window)
		}
		total := time.Duration(p.segments) * (p.window + p.warm)
		if total > runSeconds*time.Second {
			t.Errorf("%s at %d s plans %v of measuring", w.name, runSeconds, total)
		}
	}
}
