package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the p-quantile (0 < p < 1) of xs by the exclusive
// method Python's statistics.quantiles uses by default: position
// (n+1)p in the sorted data, linearly interpolated and clamped to the
// extremes. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := float64(n+1) * p
	j := int(math.Floor(h))
	switch {
	case j < 1:
		return s[0]
	case j >= n:
		return s[n-1]
	}
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile picks the highest percentile from a fixed ladder that
// still has at least ten samples beyond it, and its value; ok is false
// when even the median lacks ten samples above it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
