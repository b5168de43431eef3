package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between order statistics. A +Inf sample (a failed or rejected
// job) sorts last and makes every quantile that touches it +Inf. It
// returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return math.Inf(1)
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the percentile rule for reporting a timing's tail: the
// highest percentile, at most p90, that has at least ten samples beyond
// it, and never below the median (so fewer than 20 samples report the
// median). It returns the chosen quantile.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	q := math.Floor(100*(1-10/float64(n))) / 100
	return math.Max(0.5, math.Min(0.9, q))
}

// tail applies the percentile rule to xs and returns the chosen quantile,
// its value and the sample count it rests on.
func tail(xs []float64) (q, v float64, n int) {
	q = tailQuantile(len(xs))
	return q, quantile(xs, q), len(xs)
}
