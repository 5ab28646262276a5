// Package stats provides the small statistics and reporting toolkit used by
// the experiment harness: streaming moment accumulators, percentiles,
// fixed-width table rendering, CSV output, and ASCII line plots
// for reproducing the paper's figures in a terminal.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes streaming mean and variance using Welford's method.
// The zero value is an empty accumulator ready for use.
type Accumulator struct {
	n        int
	mean, m2 float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Percentile returns the p-th percentile (p in [0, 1]) of an already-sorted
// sample using linear interpolation between order statistics. It panics if
// sorted is empty or p is out of range.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Percentile fraction %v out of [0, 1]", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
