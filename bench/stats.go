package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of sorted xs by the method Python's
// statistics.quantiles uses by default ("exclusive"): the value at rank
// q·(n+1), interpolated between neighbours, so that -compare reports the
// same quartiles as that function.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch n {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	h := q * float64(n+1)
	j := min(max(int(math.Floor(h)), 1), n-1)
	return sorted[j-1] + (h-float64(j))*(sorted[j]-sorted[j-1])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}
