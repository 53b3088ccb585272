package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the fewest samples a reported percentile must have beyond
// it; a higher percentile than the sample supports is refused.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1)
// and refuses it when fewer than minTail samples lie beyond it.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g of %d samples", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, beyond, minTail)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the middle value of samples (the mean of the middle two for
// an even count); 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}
