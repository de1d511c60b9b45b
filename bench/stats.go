package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// minBeyond is the number of samples a reported tail percentile must have
// beyond it; a percentile with fewer is an outlier, not a tail.
const minBeyond = 10

// failedSample is the latency recorded for a failed request: it misses every
// latency limit, so it sorts above all successful samples.
var failedSample = math.Inf(1)

// rank returns the 1-based nearest-rank position of percentile p in n
// samples. The small offset keeps decimal percentiles exact: 99.9% of 10000
// is rank 9990, though the float product lands just above it.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-6))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLevel returns the highest percentile of ladder that has at least
// minBeyond of n samples beyond it, and false when none has.
func tailLevel(n int, ladder []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range ladder {
		if n-rank(n, p) >= minBeyond && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank percentile p of sorted, which must be
// sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of xs without reordering it (the mean of the two
// middle values for even lengths), or NaN when xs is empty.
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

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ledger counts attempted and failed operations across every phase of a run.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// record counts one operation and passes its error through.
func (l *ledger) record(err error) error {
	l.attempted.Add(1)
	if err != nil {
		l.failed.Add(1)
	}
	return err
}
