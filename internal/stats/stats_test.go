package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRateSampler(t *testing.T) {
	var s RateSampler
	if _, ok := s.Sample(0, 100); ok {
		t.Fatal("priming sample returned a rate")
	}
	rate, ok := s.Sample(time.Second, 350)
	if !ok || math.Abs(rate-250) > 1e-9 {
		t.Fatalf("rate = %v ok=%v, want 250 true", rate, ok)
	}
	// Counter reset: value drops, new value is the delta since reset.
	rate, ok = s.Sample(2*time.Second, 40)
	if !ok || math.Abs(rate-40) > 1e-9 {
		t.Fatalf("rate after reset = %v ok=%v, want 40 true", rate, ok)
	}
	// Zero time step yields no rate.
	if _, ok := s.Sample(2*time.Second, 50); ok {
		t.Fatal("zero dt produced a rate")
	}
}

func TestRateSamplerSteadyRateProperty(t *testing.T) {
	// A counter increasing at constant slope yields that slope at every
	// sample after the first, regardless of sampling cadence.
	prop := func(slope float64, steps uint8) bool {
		if math.IsNaN(slope) || math.IsInf(slope, 0) {
			return true
		}
		slope = math.Abs(math.Mod(slope, 1e6))
		var s RateSampler
		cum := 0.0
		for i := 0; i <= int(steps%20)+2; i++ {
			at := time.Duration(i) * 100 * time.Millisecond
			cum = slope * at.Seconds()
			rate, ok := s.Sample(at, cum)
			if i == 0 {
				if ok {
					return false
				}
				continue
			}
			if !ok || math.Abs(rate-slope) > 1e-6*math.Max(1, slope) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.Count() != 8 {
		t.Fatalf("Count = %d, want 8", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of the classic dataset: 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.CoefficientOfVariation() <= 0 {
		t.Fatal("CoV should be positive for non-constant data")
	}
	w.Reset()
	if w.Count() != 0 || w.Variance() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestWelfordConstantSeries(t *testing.T) {
	var w Welford
	for i := 0; i < 100; i++ {
		w.Add(42)
	}
	if w.Variance() != 0 || w.StdDev() != 0 || w.CoefficientOfVariation() != 0 {
		t.Fatalf("constant series: var=%v sd=%v cov=%v, want zeros",
			w.Variance(), w.StdDev(), w.CoefficientOfVariation())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("conn1")
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has a last point")
	}
	s.Record(0, 1)
	s.Record(time.Second, 3)
	s.Record(2*time.Second, 5)

	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := s.Mean(); got != 3 {
		t.Fatalf("Mean = %v, want 3", got)
	}
	if got := s.MeanSince(time.Second); got != 4 {
		t.Fatalf("MeanSince(1s) = %v, want 4", got)
	}
	if got := s.Max(); got != 5 {
		t.Fatalf("Max = %v, want 5", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min = %v, want 1", got)
	}
	if v, ok := s.At(1500 * time.Millisecond); !ok || v != 3 {
		t.Fatalf("At(1.5s) = %v %v, want 3 true", v, ok)
	}
	if _, ok := s.At(-time.Second); ok {
		t.Fatal("At before first point should not resolve")
	}
	last, ok := s.Last()
	if !ok || last.Value != 5 {
		t.Fatalf("Last = %+v %v, want value 5", last, ok)
	}
	pts := s.Points()
	pts[0].Value = 99
	if s.Mean() == 99 {
		t.Fatal("Points did not return a copy")
	}
}

func TestSeriesSet(t *testing.T) {
	ss := NewSeriesSet("weights")
	a := ss.Get("a")
	b := ss.Get("b")
	if ss.Get("a") != a {
		t.Fatal("Get did not return the existing series")
	}
	a.Record(0, 1)
	a.Record(time.Second, 2)
	b.Record(0, 10)

	all := ss.All()
	if len(all) != 2 || all[0].Name != "a" || all[1].Name != "b" {
		t.Fatalf("All = %v, want [a b]", []string{all[0].Name, all[1].Name})
	}
	table := ss.Table(time.Second)
	if table == "" {
		t.Fatal("Table returned empty output")
	}
	if ss.Table(0) != "" {
		t.Fatal("Table with zero step should be empty")
	}
}

func TestSamplerSet(t *testing.T) {
	const tick = 100 * time.Millisecond
	s := NewSamplerSet(2, 3*tick)
	ms := func(v ...int) []time.Duration {
		out := make([]time.Duration, len(v))
		for j, x := range v {
			out[j] = time.Duration(x) * time.Millisecond
		}
		return out
	}
	equal := func(step string, got []float64, want ...float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: rates %v, want %v", step, got, want)
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-9 {
				t.Fatalf("%s: rates %v, want %v", step, got, want)
			}
		}
	}
	rates, reset := s.Sample(tick, ms(500, 0))
	equal("priming", rates, 0, 0)
	if reset {
		t.Fatal("reset due before the first reset interval elapsed")
	}
	rates, _ = s.Sample(2*tick, ms(550, 20))
	equal("second", rates, 0.5, 0.2)

	// A joiner is unprimed: its first reading yields no rate.
	s.Add()
	rates, reset = s.Sample(3*tick, ms(560, 20, 7000))
	equal("after add", rates, 0.1, 0, 0)
	if !reset || s.Len() != 3 {
		t.Fatalf("reset=%v len=%d at the reset interval, want true 3", reset, s.Len())
	}
	// The owner zeroed its counters; the samplers were re-primed at zero.
	rates, reset = s.Sample(4*tick, ms(30, 0, 50))
	equal("after reset", rates, 0.3, 0, 0.5)
	if reset {
		t.Fatal("reset due one tick after a reset")
	}

	// Positions above a removed one shift down with their history.
	s.Remove(1)
	rates, _ = s.Sample(5*tick, ms(30, 60))
	equal("after remove", rates, 0, 0.1)

	never := NewSamplerSet(1, -1)
	for i := 1; i <= 40; i++ {
		if _, reset := never.Sample(time.Duration(i)*tick, ms(0)); reset {
			t.Fatal("reset due with resets disabled")
		}
	}
}
