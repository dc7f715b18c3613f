package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{0, 0, 0, false},
		{19, 0, 0, false},
		{20, 50, 10, true},
		{99, 50, 49, true},
		{100, 90, 10, true},
		{999, 90, 99, true},
		{1000, 99, 10, true},
		{1876, 99, 18, true},
		{10000, 99.9, 10, true},
	} {
		p, beyond, ok := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %t; want p%g, %d beyond, %t",
				tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if v, b := percentile(xs, 90); v != 90 || b != 10 {
		t.Errorf("p90 = %g with %d beyond; want 90 with 10", v, b)
	}
	if v, b := percentile(xs, 50); v != 50 || b != 50 {
		t.Errorf("p50 = %g with %d beyond; want 50 with 50", v, b)
	}
	if m := median(xs); m != 50.5 {
		t.Errorf("median = %g, want 50.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g, want 2", m)
	}
}
