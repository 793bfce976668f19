package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice, and how many samples lie strictly beyond that rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

// supportedPercentile lowers want until at least minBeyond samples lie
// beyond it (the rule that makes p95 the tail metric here: the smallest
// pool, 384 samples, leaves 19 beyond p95 and 3 beyond p99). Pools too
// small even for the median fall back to it.
func supportedPercentile(n int, want float64) float64 {
	if n-int(math.Ceil(want*float64(n))) >= minBeyond {
		return want
	}
	p := float64(n-minBeyond) / float64(n)
	return max(p, 0.5)
}

// median of an unsorted slice; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// bestQuartile is the timing estimator over a workload's rounds: the value
// a quarter of the way in from the best one (nearest rank, so the best of
// up to four rounds, the second best of five to eight, the third of nine
// to twelve). lowerIsBetter says which end is the best. 0 for no rounds.
func bestQuartile(xs []float64, lowerIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if !lowerIsBetter {
		slices.Reverse(s)
	}
	v, _ := percentile(s, 0.25) // nearest rank only counts positions, so a descending slice serves
	return v
}

// ratio is a/b with 0 for an empty denominator, so a layer that saw no
// traffic reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
