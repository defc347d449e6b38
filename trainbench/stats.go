package main

import (
	"math"
	"sort"
)

// tailBeyond is the least number of samples that must lie above the
// reported tail percentile, so the tail is never one or two outliers.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile p of xs that has at least
// tailBeyond samples above its nearest-rank value, with that value. ok is
// false when xs has too few samples for any percentile to qualify.
func tail(xs []float64) (value float64, pct int, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	// Nearest rank of percentile p is ceil(p·n/100); the samples beyond it
	// are n − rank. Walk down from p99 to the first p that leaves enough.
	for p := 99; p >= 1; p-- {
		rank := (p*n + 99) / 100
		if n-rank >= tailBeyond {
			return s[rank-1], p, true
		}
	}
	return math.NaN(), 0, false
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
