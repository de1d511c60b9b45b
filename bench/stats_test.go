package main

import (
	"math"
	"testing"
)

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // rank 9990: exactly 10 samples beyond
		{9999, 99, true},    // rank 9990: 9 beyond p99.9
		{1000, 99, true},
		{999, 90, true},
		{100, 90, true},
		{99, 50, true},
		{20, 50, true},
		{19, 0, false}, // rank 10: 9 beyond the median
		{0, 0, false},
	} {
		got, ok := tailLevel(tc.n, []float64{50, 90, 99, 99.9})
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileFailedSortAbove(t *testing.T) {
	lat := make([]float64, 0, 1000)
	for i := 1; i <= 995; i++ {
		lat = append(lat, float64(i))
	}
	// Five failed requests: they miss every limit, so they are the top of
	// the distribution whatever the successful latencies were.
	for i := 0; i < 5; i++ {
		lat = append(lat, failedSample)
	}
	s := sortedCopy(lat)
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(s, 99.9); !math.IsInf(got, 1) {
		t.Errorf("p99.9 = %v, want a failed request", got)
	}
	if got := percentile(s, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
