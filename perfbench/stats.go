package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail value backed by fewer samples is one outlier, not a
// percentile.
const minBeyond = 10

// percentile returns the q-quantile of sorted (nearest rank) and whether
// at least minBeyond samples lie strictly above it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return sorted[i], n-1-i >= minBeyond
}

// median is the middle value (mean of the two middle ones for an even
// count), as Python's statistics.median gives it; 0 for no values.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the method of
// Python's statistics.quantiles(values, n=4) (the default "exclusive"
// method), so spreads read the same here and in any Python check of the
// same numbers. A single value is its own quartiles.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
