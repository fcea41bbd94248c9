package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeClassFunc builds a rate function whose knee sits at the given weight
// and whose blocking grows with the given slope past it, emulating a
// connection of a particular capacity class.
func makeClassFunc(t *testing.T, units, knee int, slope float64) *RateFunc {
	t.Helper()
	f := NewRateFunc(units, 1)
	mustObserve(t, f, knee, 0)
	if knee < units {
		mid := knee + (units-knee)/2
		mustObserve(t, f, mid, slope*float64(mid-knee))
		mustObserve(t, f, units, slope*float64(units-knee))
	}
	return f
}

func TestAlpha(t *testing.T) {
	a := Alpha(1000)
	// log(1000)/|log(1000*1e-6)| = log(1000)/|log(1e-3)| = 1.
	if math.Abs(a-1) > 1e-12 {
		t.Fatalf("Alpha(1000) = %v, want 1", a)
	}
	if got := Alpha(0); got <= 0 {
		t.Fatalf("Alpha with defaults = %v, want positive", got)
	}
}

func TestDistanceProperties(t *testing.T) {
	alpha := Alpha(1000)
	mk := func(knee int, atKnee, atFull float64) FuncSummary {
		return FuncSummary{Knee: knee, AtKnee: atKnee, AtFull: atFull}
	}

	t.Run("identity", func(t *testing.T) {
		s := mk(500, 2, 90)
		if d := Distance(s, s, alpha); d != 0 {
			t.Fatalf("Distance(s,s) = %v, want 0", d)
		}
	})

	t.Run("symmetry", func(t *testing.T) {
		prop := func(k1, k2 uint16, a1, a2, f1, f2 float64) bool {
			s1 := mk(int(k1%1000)+1, math.Abs(a1), math.Abs(f1))
			s2 := mk(int(k2%1000)+1, math.Abs(a2), math.Abs(f2))
			d12 := Distance(s1, s2, alpha)
			d21 := Distance(s2, s1, alpha)
			return math.Abs(d12-d21) < 1e-12
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("non-negative", func(t *testing.T) {
		prop := func(k1, k2 uint16, a1, f1 float64) bool {
			s1 := mk(int(k1%1000)+1, math.Abs(a1), math.Abs(f1))
			s2 := mk(int(k2%1000)+1, math.Abs(a1)*2, math.Abs(f1)*3)
			return Distance(s1, s2, alpha) >= 0
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("large capacity gaps dominate", func(t *testing.T) {
		sFast := mk(800, 1, 5)
		sNear := mk(700, 1, 5)
		sSlow := mk(8, 1, 5)
		if dNear, dFar := Distance(sFast, sNear, alpha), Distance(sFast, sSlow, alpha); dNear >= dFar {
			t.Fatalf("near distance %v >= far distance %v", dNear, dFar)
		}
	})
}

func TestSummarize(t *testing.T) {
	f := makeClassFunc(t, 1000, 500, 0.1)
	s := Summarize(f)
	if s.Knee <= 450 || s.Knee > 550 {
		t.Fatalf("knee = %d, want near 500", s.Knee)
	}
	if s.AtFull <= s.AtKnee {
		t.Fatalf("AtFull %v <= AtKnee %v, want increasing", s.AtFull, s.AtKnee)
	}
}

func TestAgglomerateThreeClasses(t *testing.T) {
	// Three capacity classes, four functions each, as in the Figure 12
	// experiment. Clustering must never mix classes.
	units := 1000
	classes := []struct {
		knee  int
		slope float64
	}{
		{10, 5.0},   // 100x load: blocks almost immediately, severely
		{150, 0.5},  // 5x load
		{700, 0.05}, // unloaded
	}
	var funcs []*RateFunc
	classOf := make(map[int]int)
	idx := 0
	for ci, c := range classes {
		for i := 0; i < 4; i++ {
			funcs = append(funcs, makeClassFunc(t, units, c.knee+i, c.slope))
			classOf[idx] = ci
			idx++
		}
	}
	alpha := Alpha(units)
	summaries := make([]FuncSummary, len(funcs))
	for i, f := range funcs {
		summaries[i] = Summarize(f)
	}
	clusters := Agglomerate(len(funcs), func(i, j int) float64 {
		return Distance(summaries[i], summaries[j], alpha)
	}, clusterThreshold)

	if len(clusters) < 3 {
		t.Fatalf("got %d clusters, want at least 3 (one per class)", len(clusters))
	}
	for _, c := range clusters {
		for _, m := range c[1:] {
			if classOf[m] != classOf[c[0]] {
				t.Fatalf("cluster %v mixes classes %d and %d", c, classOf[c[0]], classOf[m])
			}
		}
	}
}

func TestAgglomerateEdgeCases(t *testing.T) {
	if got := Agglomerate(0, nil, 1); got != nil {
		t.Fatalf("Agglomerate(0) = %v, want nil", got)
	}
	one := Agglomerate(1, func(i, j int) float64 { return 0 }, 1)
	if len(one) != 1 || len(one[0]) != 1 || one[0][0] != 0 {
		t.Fatalf("Agglomerate(1) = %v, want [[0]]", one)
	}
	// Zero distances collapse everything into one cluster.
	all := Agglomerate(5, func(i, j int) float64 { return 0 }, 0.5)
	if len(all) != 1 || len(all[0]) != 5 {
		t.Fatalf("Agglomerate with zero distances = %v, want one cluster of 5", all)
	}
	// Infinite distances keep every item separate.
	none := Agglomerate(5, func(i, j int) float64 { return math.Inf(1) }, 0.5)
	if len(none) != 5 {
		t.Fatalf("Agglomerate with infinite distances = %v, want 5 singletons", none)
	}
}

func TestAgglomeratePartitionProperty(t *testing.T) {
	prop := func(seed int64, rawN uint8, threshold float64) bool {
		n := int(rawN%20) + 1
		rng := rand.New(rand.NewSource(seed))
		// Symmetric random distance matrix with zero diagonal.
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64() * 3
				d[i][j], d[j][i] = v, v
			}
		}
		clusters := Agglomerate(n, func(i, j int) float64 { return d[i][j] }, math.Abs(threshold))
		seen := make(map[int]bool, n)
		for _, c := range clusters {
			for _, m := range c {
				if m < 0 || m >= n || seen[m] {
					return false
				}
				seen[m] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFuncsPoolsData(t *testing.T) {
	a := NewRateFunc(100, 1)
	b := NewRateFunc(100, 1)
	mustObserve(t, a, 30, 0)
	mustObserve(t, b, 60, 12)

	merged := MergeFuncs([]*RateFunc{a, b}, 100, 1)
	if got := merged.SampleCount(); got != 2 {
		t.Fatalf("merged SampleCount = %v, want 2", got)
	}
	if got := merged.Predict(60); math.Abs(got-12) > 1e-9 {
		t.Fatalf("merged Predict(60) = %v, want 12", got)
	}
	if got := merged.Predict(30); got != 0 {
		t.Fatalf("merged Predict(30) = %v, want 0", got)
	}
}
