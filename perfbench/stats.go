package main

import (
	"slices"
	"sort"

	"vectorliterag/internal/stats"
)

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it as the tail.
const minBeyond = 10

// tail is the highest candidate percentile of the sample with at least
// minBeyond samples strictly above it. ok is false when even the median
// has fewer than minBeyond samples beyond it; q and value then describe
// the median.
func tail(sample []float64) (q, value float64, ok bool) {
	s := sortedCopy(sample)
	if len(s) == 0 {
		return 0.5, 0, false
	}
	for _, cand := range tailQuantiles {
		v := stats.PercentileSorted(s, cand)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
		if beyond >= minBeyond {
			return cand, v, true
		}
	}
	return 0.5, stats.PercentileSorted(s, 0.5), false
}

// median returns the sample median (0 for an empty sample).
func median(sample []float64) float64 {
	return quantile(sample, 0.5)
}

// quantile returns the linearly interpolated q-quantile (0 for an empty
// sample).
func quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	return stats.PercentileSorted(sortedCopy(sample), q)
}

func sortedCopy(sample []float64) []float64 {
	s := slices.Clone(sample)
	slices.Sort(s)
	return s
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
