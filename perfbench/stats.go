package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A p99 therefore needs at least 1000 samples; with fewer, the tail is
// not reported as a percentile at all.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples, and whether at least minBeyond samples lie beyond it.
func percentile(sorted []int64, p float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= minBeyond
}

// timing is one latency sample set, sorted, in ns.
type timing struct{ sorted []int64 }

// summarize sorts ns in place.
func summarize(ns []int64) timing {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return timing{ns}
}

func (t timing) n() int { return len(t.sorted) }

// at returns the p-quantile in µs and whether minBeyond samples lie
// beyond it.
func (t timing) at(p float64) (float64, bool) {
	v, ok := percentile(t.sorted, p)
	return float64(v) / 1e3, ok
}

// max returns the largest sample in µs.
func (t timing) max() float64 {
	if len(t.sorted) == 0 {
		return 0
	}
	return float64(t.sorted[len(t.sorted)-1]) / 1e3
}

// median returns the median of xs (mean of the middle pair for even
// lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method (Python's statistics.quantiles(xs, n=4) default),
// which is the spread rule the benchmark's bounds are checked against.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	// A transcription of statistics.quantiles(method='exclusive'),
	// including its clamping (and extrapolation) for tiny n.
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
