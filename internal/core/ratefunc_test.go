package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRateFuncDefaults(t *testing.T) {
	f := NewRateFunc(0, 0)
	if f.Units() != DefaultUnits {
		t.Fatalf("units = %d, want %d", f.Units(), DefaultUnits)
	}
	if got := f.Predict(500); got != 0 {
		t.Fatalf("empty function Predict(500) = %v, want 0", got)
	}
	if got := f.Knee(); got != DefaultUnits {
		t.Fatalf("empty function knee = %d, want %d", got, DefaultUnits)
	}
}

func TestRateFuncObserveValidation(t *testing.T) {
	f := NewRateFunc(100, 0.5)
	if err := f.Observe(-1, 1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := f.Observe(101, 1); err == nil {
		t.Fatal("out-of-domain weight accepted")
	}
	if err := f.Observe(50, -3); err != nil {
		t.Fatalf("negative rate rejected: %v", err)
	}
	if got := f.Predict(50); got != 0 {
		t.Fatalf("negative rate not clamped: Predict(50) = %v", got)
	}
}

func TestRateFuncInterpolation(t *testing.T) {
	f := NewRateFunc(100, 1) // alpha=1: cells track last sample exactly
	mustObserve(t, f, 20, 0)
	mustObserve(t, f, 60, 10)

	if got := f.Predict(20); got != 0 {
		t.Fatalf("Predict(20) = %v, want 0 (observed)", got)
	}
	if got := f.Predict(60); math.Abs(got-10) > 1e-9 {
		t.Fatalf("Predict(60) = %v, want 10 (observed)", got)
	}
	if got := f.Predict(40); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Predict(40) = %v, want 5 (midpoint interpolation)", got)
	}
	// Extrapolation continues the last slope: 10/(60-20) = 0.25 per unit.
	if got := f.Predict(100); math.Abs(got-20) > 1e-9 {
		t.Fatalf("Predict(100) = %v, want 20 (linear extrapolation)", got)
	}
	// Below the first positive point the function interpolates from (0,0).
	if got := f.Predict(10); got != 0 {
		t.Fatalf("Predict(10) = %v, want 0", got)
	}
}

func TestRateFuncSmoothing(t *testing.T) {
	f := NewRateFunc(100, 0.5)
	mustObserve(t, f, 50, 10)
	mustObserve(t, f, 50, 0)
	// EWMA with alpha 0.5: 0.5*0 + 0.5*10 = 5.
	if got := f.Predict(50); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Predict(50) = %v, want 5 after smoothing", got)
	}
	if got := f.SampleCount(); got != 2 {
		t.Fatalf("SampleCount = %v, want 2", got)
	}
}

func TestRateFuncMonotoneRepair(t *testing.T) {
	// Empirical data violating monotonicity must be forced non-decreasing.
	f := NewRateFunc(100, 1)
	mustObserve(t, f, 30, 8)
	mustObserve(t, f, 70, 2) // violates monotonicity

	prev := -1.0
	for w := 0; w <= 100; w++ {
		v := f.Predict(w)
		if v < prev {
			t.Fatalf("prediction decreases at w=%d: %v < %v", w, v, prev)
		}
		prev = v
	}
	// With alpha=1 the consistency propagation snaps the contradicted
	// lower-weight cell to the fresh upper bound.
	if got := f.Predict(70); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Predict(70) = %v, want 2", got)
	}
	if got := f.Predict(30); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Predict(30) = %v, want 2 (reconciled with later observation)", got)
	}
}

func TestRateFuncPredictionsMonotoneProperty(t *testing.T) {
	prop := func(seed int64, nObs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		f := NewRateFunc(200, 0.5)
		for i := 0; i < int(nObs%40)+1; i++ {
			w := rng.Intn(201)
			r := rng.Float64() * 1000
			if err := f.Observe(w, r); err != nil {
				return false
			}
			if rng.Intn(4) == 0 {
				f.Decay(rng.Intn(201), 0.9)
			}
		}
		prev := math.Inf(-1)
		for w := 0; w <= 200; w++ {
			v := f.Predict(w)
			if v < 0 || v < prev-1e-9 {
				return false
			}
			if v > prev {
				prev = v
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRateFuncDecay(t *testing.T) {
	f := NewRateFunc(100, 1)
	mustObserve(t, f, 20, 4)
	mustObserve(t, f, 80, 100)

	before := f.Predict(80)
	f.Decay(20, 0.9)
	after := f.Predict(80)
	if math.Abs(after-before*0.9) > 1e-9 {
		t.Fatalf("decayed Predict(80) = %v, want %v", after, before*0.9)
	}
	// Cells at or below the current weight must be untouched.
	if got := f.Predict(20); math.Abs(got-4) > 1e-9 {
		t.Fatalf("Predict(20) = %v, want 4 (undecayed)", got)
	}
	// Repeated decay, combined with the monotone regression, makes the
	// function essentially flat beyond the current weight (Section 5.4).
	for i := 0; i < 200; i++ {
		f.Decay(20, 0.9)
	}
	if gap := f.Predict(80) - f.Predict(20); gap > 1e-3 {
		t.Fatalf("Predict(80)-Predict(20) = %v after repeated decay, want ~0 (flat tail)", gap)
	}
	if got := f.Predict(80); got >= before {
		t.Fatalf("Predict(80) = %v after repeated decay, want < initial %v", got, before)
	}
}

func TestRateFuncDecayIgnoresBadFactor(t *testing.T) {
	f := NewRateFunc(100, 1)
	mustObserve(t, f, 80, 100)
	f.Decay(0, 1.5)
	f.Decay(0, -0.1)
	if got := f.Predict(80); math.Abs(got-100) > 1e-9 {
		t.Fatalf("Predict(80) = %v, want 100 (bad factors ignored)", got)
	}
}

func TestRateFuncKnee(t *testing.T) {
	f := NewRateFunc(1000, 1)
	mustObserve(t, f, 400, 0)
	mustObserve(t, f, 500, 0)
	mustObserve(t, f, 600, 50)

	knee := f.Knee()
	if knee <= 500 || knee > 600 {
		t.Fatalf("knee = %d, want in (500, 600]", knee)
	}
	// A function that blocks severely at minimal load has a tiny knee.
	g := NewRateFunc(1000, 1)
	mustObserve(t, g, 1, 500)
	if got := g.Knee(); got != 1 {
		t.Fatalf("severe function knee = %d, want 1", got)
	}
}

func TestRateFuncAbsorbCells(t *testing.T) {
	a := NewRateFunc(100, 1)
	mustObserve(t, a, 50, 10)
	b := NewRateFunc(100, 1)
	mustObserve(t, b, 50, 30)
	mustObserve(t, b, 50, 30) // count 2 at value 30

	a.AbsorbCells(b.RawCells())
	// Weighted mean: (10*1 + 30*2)/3 = 23.333...
	if got := a.Predict(50); math.Abs(got-70.0/3.0) > 1e-9 {
		t.Fatalf("Predict(50) = %v, want %v", got, 70.0/3.0)
	}
	if got := a.SampleCount(); got != 3 {
		t.Fatalf("SampleCount = %v, want 3", got)
	}

	// Out-of-domain cells are ignored.
	a.AbsorbCells(map[int]RawCell{500: {Value: 1, Count: 1}})
	if got := a.SampleCount(); got != 3 {
		t.Fatalf("SampleCount after bad absorb = %v, want 3", got)
	}
}

func TestRateFuncReset(t *testing.T) {
	f := NewRateFunc(100, 1)
	mustObserve(t, f, 50, 10)
	f.Reset()
	if got := f.Predict(100); got != 0 {
		t.Fatalf("Predict(100) = %v after reset, want 0", got)
	}
	if got := f.SampleCount(); got != 0 {
		t.Fatalf("SampleCount = %v after reset, want 0", got)
	}
}

func mustObserve(t *testing.T, f *RateFunc, w int, r float64) {
	t.Helper()
	if err := f.Observe(w, r); err != nil {
		t.Fatalf("Observe(%d, %v): %v", w, r, err)
	}
}
