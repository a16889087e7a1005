package main

import (
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 5}, 0, 6},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7.5, 1, 9, 2, 8, 3, 4}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		want  float64
		label string
	}{
		{19, 19, "max of n=19"},
		{20, 10, "p50 of n=20"},
		{99, 50, "p50 of n=99"},
		{100, 90, "p90 of n=100"},
		{999, 900, "p90 of n=999"}, // p99 would leave only 9 samples beyond
		{1000, 990, "p99 of n=1000"},
		{10010, 10000, "p99.9 of n=10010"},
	} {
		v, label := tail(seq(c.n))
		if v != c.want || !strings.HasPrefix(label, c.label) {
			t.Errorf("tail(1..%d) = %v %q, want %v %q", c.n, v, label, c.want, c.label)
		}
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  []int64
	}{
		{
			name: "nested",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 30},
				{ID: 3, Parent: 2, Start: 15, End: 20},
			},
			want: []int64{80, 15, 5},
		},
		{
			name: "overlapping children",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 10, End: 50},
				{ID: 3, Parent: 1, Start: 40, End: 60},
				{ID: 4, Parent: 1, Start: 70, End: 80},
			},
			want: []int64{40, 40, 20, 10},
		},
		{
			name: "concurrent children, identical and sticking out of the parent",
			spans: []span{
				{ID: 1, Start: 0, End: 100},
				{ID: 2, Parent: 1, Start: 20, End: 40},
				{ID: 3, Parent: 1, Start: 20, End: 40},
				{ID: 4, Parent: 1, Start: 90, End: 120},
				{ID: 5, Parent: 1, Start: -10, End: 5},
				{ID: 6, Parent: 1, Start: 150, End: 160},
			},
			want: []int64{65, 20, 20, 30, 15, 10},
		},
		{
			name: "roots and siblings are independent",
			spans: []span{
				{ID: 1, Start: 0, End: 10},
				{ID: 2, Start: 5, End: 15},
			},
			want: []int64{10, 10},
		},
	} {
		got := selfTimes(c.spans)
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}
