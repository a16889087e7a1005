package main

import (
	"fmt"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; NaN-free inputs assumed, 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns q1 and q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// the spreads printed here match the ones an external checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentiles are the candidate tail percentiles, highest first, as
// exact fractions num/den so ranks are computed in integers.
var tailPercentiles = []struct {
	label    string
	num, den int64
}{
	{"p99.999", 99999, 100000},
	{"p99.99", 9999, 10000},
	{"p99.9", 999, 1000},
	{"p99", 99, 100},
	{"p90", 9, 10},
	{"p50", 1, 2},
}

// tail reports the highest candidate percentile of xs that still has at
// least ten samples beyond it (nearest-rank definition), with its label.
// When no candidate qualifies (fewer than 20 samples) it reports the
// maximum and says so in the label.
func tail(xs []float64) (value float64, label string) {
	s := sorted(xs)
	n := int64(len(s))
	if n == 0 {
		return 0, "none"
	}
	for _, p := range tailPercentiles {
		rank := (n*p.num + p.den - 1) / p.den // ceil(n·p), 1-based
		if rank >= 1 && n-rank >= 10 {
			return s[rank-1], fmt.Sprintf("%s of n=%d", p.label, n)
		}
	}
	return s[n-1], fmt.Sprintf("max of n=%d, no percentile has 10 samples beyond", n)
}
