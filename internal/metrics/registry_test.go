package metrics

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("tuples_total", "tuples")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %v, want 5", got)
	}
	c.Add(-3) // ignored: counters are monotone
	c.Add(math.NaN())
	if got := c.Value(); got != 5 {
		t.Fatalf("counter after bad deltas = %v, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestVecChildrenAreDistinctAndStable(t *testing.T) {
	r := New()
	v := r.CounterVec("sent_total", "per conn", "conn")
	v.With("0").Add(3)
	v.With("1").Add(5)
	v.With("0").Add(1)
	if got, ok := r.Value("sent_total", "conn", "0"); !ok || got != 4 {
		t.Fatalf("conn 0 = %v (ok=%v), want 4", got, ok)
	}
	if got, ok := r.Value("sent_total", "conn", "1"); !ok || got != 5 {
		t.Fatalf("conn 1 = %v (ok=%v), want 5", got, ok)
	}
	if sum, ok := r.SumAcross("sent_total"); !ok || sum != 9 {
		t.Fatalf("sum = %v (ok=%v), want 9", sum, ok)
	}
	if _, ok := r.Value("sent_total", "conn", "9"); ok {
		t.Fatal("missing series reported present")
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("unknown family reported present")
	}
}

func TestRegistrationIsIdempotentAndCheckskind(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	a.Inc()
	b.Inc()
	if got := a.Value(); got != 2 {
		t.Fatalf("re-registered counter diverged: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, bad := range []string{"", "9lives", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bad label name accepted")
			}
		}()
		r.CounterVec("ok_total", "", "le:gal")
	}()
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100, math.NaN()} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	// Cumulative buckets: le=0.1 -> 2, le=1 -> 3, le=10 -> 4, +Inf -> 6.
	want := map[string]float64{"0.1": 2, "1": 3, "10": 4, "+Inf": 6}
	for _, s := range r.Samples() {
		if s.Name != "lat_seconds_bucket" {
			continue
		}
		le := s.LabelValues[len(s.LabelValues)-1]
		if w, ok := want[le]; ok && s.Value != w {
			t.Fatalf("bucket le=%s = %v, want %v", le, s.Value, w)
		}
	}
}

func TestConcurrentHotPath(t *testing.T) {
	r := New()
	v := r.CounterVec("hits_total", "", "conn")
	g := r.Gauge("level", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := v.With("0")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got, _ := r.Value("hits_total", "conn", "0"); got != 8000 {
		t.Fatalf("concurrent adds lost: %v, want 8000", got)
	}
}

// TestFuncBoundSeriesReadTheSameEverywhere binds a counter, a gauge and one
// labelled child to read functions and checks every reader — Samples, Value,
// SumAcross, WritePrometheus and the handles' Value — sees the function's
// current result, that an unbound sibling child is unaffected, and that
// binding (after every family and series already exists) moves nothing in the
// registration order.
func TestFuncBoundSeriesReadTheSameEverywhere(t *testing.T) {
	r := New()
	c := r.Counter("released_total", "released")
	g := r.Gauge("watermark", "watermark")
	v := r.GaugeVec("queue_tuples", "per conn", "conn")
	bound, plain := v.With("1"), v.With("0")
	last := r.Counter("zz_total", "registered last")
	last.Add(3)
	plain.Set(2)

	var n atomic.Uint64
	c.Add(100) // hidden once the series is bound
	c.SetFunc(func() float64 { return float64(n.Load()) })
	g.SetFunc(func() float64 { return float64(n.Load()) * 2 })
	bound.SetFunc(func() float64 { return float64(n.Load()) + 0.5 })

	for _, now := range []uint64{0, 7, 41} {
		n.Store(now)
		want := map[string]float64{
			"released_total":         float64(now),
			"watermark":              float64(now) * 2,
			`queue_tuples{conn="1"}`: float64(now) + 0.5,
			`queue_tuples{conn="0"}`: 2,
			"zz_total":               3,
		}
		if c.Value() != want["released_total"] || g.Value() != want["watermark"] || bound.Value() != want[`queue_tuples{conn="1"}`] {
			t.Fatalf("n=%d handles: counter %v gauge %v child %v", now, c.Value(), g.Value(), bound.Value())
		}
		if got, ok := r.Value("released_total"); !ok || got != want["released_total"] {
			t.Fatalf("n=%d Value(released_total) = %v, %v", now, got, ok)
		}
		if got, ok := r.Value("queue_tuples", "conn", "1"); !ok || got != want[`queue_tuples{conn="1"}`] {
			t.Fatalf("n=%d Value(queue_tuples, 1) = %v, %v", now, got, ok)
		}
		if got, ok := r.SumAcross("queue_tuples"); !ok || got != want[`queue_tuples{conn="1"}`]+2 {
			t.Fatalf("n=%d SumAcross(queue_tuples) = %v, %v", now, got, ok)
		}
		if got, ok := r.SumAcross("watermark"); !ok || got != want["watermark"] {
			t.Fatalf("n=%d SumAcross(watermark) = %v, %v", now, got, ok)
		}
		var order []string
		for _, s := range r.Samples() {
			key := s.Name
			if len(s.LabelValues) > 0 {
				key += `{conn="` + s.LabelValues[0] + `"}`
			}
			order = append(order, key)
			if s.Value != want[key] {
				t.Fatalf("n=%d Samples: %s = %v, want %v", now, key, s.Value, want[key])
			}
		}
		// Families in registration order, series in creation order: binding
		// "1" did not move it, and did not move the families around it.
		wantOrder := []string{"released_total", "watermark", `queue_tuples{conn="1"}`, `queue_tuples{conn="0"}`, "zz_total"}
		if strings.Join(order, " ") != strings.Join(wantOrder, " ") {
			t.Fatalf("n=%d order %v, want %v", now, order, wantOrder)
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, key := range wantOrder {
			lines = append(lines, key+" "+formatFloat(want[key]))
		}
		var got []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "\n") != strings.Join(lines, "\n") {
			t.Fatalf("n=%d exposition:\n%s\nwant:\n%s", now, strings.Join(got, "\n"), strings.Join(lines, "\n"))
		}
	}

	// Binding again replaces the reader.
	c.SetFunc(func() float64 { return 1000 })
	if got, _ := r.Value("released_total"); got != 1000 || c.Value() != 1000 {
		t.Fatalf("rebound counter reads %v / %v, want 1000", got, c.Value())
	}
}

// TestFuncBoundSeriesScrapedConcurrently binds while scrapers are already
// running, as a region built after its /metrics endpoint came up does: the
// race detector is the assertion.
func TestFuncBoundSeriesScrapedConcurrently(t *testing.T) {
	r := New()
	c := r.Counter("n_total", "n")
	var n atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.WritePrometheus(io.Discard)
				r.Samples()
				v, _ := r.SumAcross("n_total")
				if v < prev {
					t.Errorf("n_total went backwards: %v -> %v", prev, v)
				}
				prev = v
			}
		}()
	}
	c.Add(1)
	n.Store(1)
	c.SetFunc(func() float64 { return float64(n.Load()) })
	for i := 0; i < 1000; i++ {
		n.Add(1)
	}
	close(stop)
	wg.Wait()
	if c.Value() != 1001 {
		t.Fatalf("bound counter = %v, want 1001", c.Value())
	}
}
