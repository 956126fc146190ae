package main

import (
	"math"
	"slices"
)

// tailCandidates are the percentiles a latency tail may be reported at,
// lowest first.
var tailCandidates = []float64{50, 90, 95, 99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that still has at
// least minBeyond of n samples beyond it, and never less than the median.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of sorted (ascending).
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

func sortedCopy(v []uint32) []uint32 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartileSpread is the distance between the first and third quartile of v
// as a share of its median, with the quartiles of Python's
// statistics.quantiles(v, n=4) — the rule the benchmark's acceptance uses.
// Fewer than two values have no spread.
func quartileSpread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(med)
}
