package core

import (
	"math"
	"sort"
)

// cluster.go implements the connection-function clustering of Section 5.3:
// connections with indistinguishable predictive functions (typically PEs
// sharing a host, or hosts of the same class) are grouped so their sparse
// observations pool into one robust cluster function and the optimization
// shrinks from an N-way to a K-way problem.

// FuncSummary captures the characteristics the paper's distance function
// compares: the knee weight w_s (effectively the connection's service rate),
// the blocking observed at the knee, and the blocking expected at the full
// load R.
type FuncSummary struct {
	// Knee is w_s: the smallest weight with positive predicted blocking.
	Knee int
	// AtKnee is F(w_s).
	AtKnee float64
	// AtFull is F(R).
	AtFull float64
}

// delta is δ, the small positive value that stands in for a zero wherever the
// distance takes a logarithm (Section 5.3).
const delta = 1e-6

// Summarize extracts a FuncSummary from a rate function.
func Summarize(f *RateFunc) FuncSummary {
	knee := f.Knee()
	return FuncSummary{
		Knee:   knee,
		AtKnee: f.Predict(knee),
		AtFull: f.Predict(f.Units()),
	}
}

// Alpha returns the scaling factor α = log R / |log(R·δ)| that puts the
// blocking-rate ratio terms of the distance on the same scale as the
// service-rate ratio term (Section 5.3).
func Alpha(units int) float64 {
	if units <= 0 {
		units = DefaultUnits
	}
	denom := math.Abs(math.Log(float64(units) * delta))
	if denom == 0 {
		return 1
	}
	return math.Log(float64(units)) / denom
}

// Distance implements the paper's function distance:
//
//	max( |log(w_js / w_ks)|,
//	     α·|log(F_j(w_js) / F_k(w_ks))|,
//	     α·|log(F_j(R) / F_k(R))| )
//
// Logarithms of ratios penalize large differences far more than small ones;
// taking the max avoids the information loss of aggregation. Zero values are
// replaced by δ so the logarithms stay finite; two functions that are both
// zero in a term contribute 0 for that term.
func Distance(a, b FuncSummary, alpha float64) float64 {
	logRatio := func(x, y float64) float64 {
		if x <= 0 {
			x = delta
		}
		if y <= 0 {
			y = delta
		}
		return math.Abs(math.Log(x / y))
	}
	d := logRatio(float64(a.Knee), float64(b.Knee))
	if v := alpha * logRatio(a.AtKnee, b.AtKnee); v > d {
		d = v
	}
	if v := alpha * logRatio(a.AtFull, b.AtFull); v > d {
		d = v
	}
	return d
}

// Agglomerate performs agglomerative clustering with complete linkage over n
// items using the given pairwise distance. Clusters are repeatedly merged
// while the smallest complete-linkage distance between any two clusters is at
// most threshold. The result is a partition of 0..n-1; member and cluster
// ordering is deterministic (by smallest contained index) so downstream heat
// maps are stable.
func Agglomerate(n int, dist func(i, j int) float64, threshold float64) [][]int {
	if n <= 0 {
		return nil
	}
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	// Complete linkage: distance between clusters is the max pairwise
	// member distance. Cached in a matrix, O(n^3) overall — n is the number
	// of connections in one parallel region (at most a few hundred).
	linkage := func(a, b []int) float64 {
		worst := 0.0
		for _, i := range a {
			for _, j := range b {
				if d := dist(i, j); d > worst {
					worst = d
				}
			}
		}
		return worst
	}
	for len(clusters) > 1 {
		bestA, bestB := -1, -1
		bestD := math.Inf(1)
		for a := 0; a < len(clusters); a++ {
			for b := a + 1; b < len(clusters); b++ {
				if d := linkage(clusters[a], clusters[b]); d < bestD {
					bestD = d
					bestA, bestB = a, b
				}
			}
		}
		if bestD > threshold {
			break
		}
		merged := append(append([]int(nil), clusters[bestA]...), clusters[bestB]...)
		next := make([][]int, 0, len(clusters)-1)
		for i, c := range clusters {
			if i != bestA && i != bestB {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	return canonicalClusters(clusters)
}

// canonicalClusters sorts members within each cluster and clusters by their
// smallest member, producing a deterministic partition representation.
func canonicalClusters(clusters [][]int) [][]int {
	for _, c := range clusters {
		sort.Ints(c)
	}
	sort.Slice(clusters, func(a, b int) bool {
		return clusters[a][0] < clusters[b][0]
	})
	return clusters
}

// MergeFuncs builds the cluster function for a group of connections by
// pooling every member's raw observations into a fresh RateFunc (Section 5.3:
// "we create a new function for the cluster which incorporates all data from
// the individual connections in the cluster").
func MergeFuncs(members []*RateFunc, units int, alpha float64) *RateFunc {
	merged := NewRateFunc(units, alpha)
	for _, m := range members {
		merged.AbsorbCells(m.RawCells())
	}
	return merged
}
