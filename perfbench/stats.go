package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must leave
// beyond it: a tail figure resting on fewer samples is noise, not a
// measurement.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// fails when fewer than minBeyond samples lie beyond the chosen rank, so a
// run that is too short to support the figure says so instead of printing
// it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", 100*q, n)
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if beyond := n - 1 - k; beyond < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples leaves %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[k], nil
}

// median is the middle value of xs (mean of the two middle values for an
// even count); it has no tail and so no sample-count rule. Zero samples
// give 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
