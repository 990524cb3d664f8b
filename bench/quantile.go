package main

import (
	"math"
	"slices"
)

// quantiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), so the
// spreads printed here are the ones the driver computes. With fewer than
// two samples all three are the single value (or 0).
func quantiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 {
		// Rank k*(n+1)/4, 1-based, between neighbours j and j+1; like
		// Python, j is clamped and the weight recomputed after it.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quantiles(xs)
	return m
}

// percentile returns the p-th percentile (0..1) by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reports 0, not
// NaN (JSON cannot carry NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
