package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples a reported percentile needs beyond it: p99
// is only reported from at least 1,000 samples, p50 from at least 20.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 1) of samples by the
// nearest-rank rule. It refuses a percentile with fewer than minTail
// samples above it rather than report an estimate the run cannot support.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if beyond := int(math.Floor(float64(n) * (1 - p))); beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", p*100, minTail, beyond, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median is the middle value (mean of the two middle values for an even
// count); zero for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// durations converts latencies to float milliseconds or microseconds.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// ratio is a/b, zero when b is zero (a per-statement count on a workload
// without that kind of statement).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
