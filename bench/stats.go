package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks; NaN for an empty slice.
func percentile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return asc[0]
	}
	if p >= 100 {
		return asc[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return asc[n-1]
	}
	return asc[lo] + frac*(asc[lo+1]-asc[lo])
}

// median returns the 50th percentile of v (unsorted input).
func median(v []float64) float64 { return percentile(sorted(v), 50) }

// lowQuarterMean is the mean of the lowest quarter of v (a quarter rounded
// down, never fewer than one value): the fast side of a lower-is-better
// metric on a host whose interference only ever adds time.
func lowQuarterMean(v []float64) float64 {
	s := sorted(v)
	n := len(s) / 4
	if n < 1 {
		n = 1
	}
	return mean(s[:n])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// iqrShare is the distance between the first and third quartile of v as a
// share of its median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), because that
// is the spread the benchmark contract is judged by.
func iqrShare(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / math.Abs(percentile(s, 50))
}
