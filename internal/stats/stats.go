// Package stats provides the small statistics and reporting toolkit used by
// the experiment harness: streaming moment accumulators, summaries with
// percentiles, fixed-width table rendering, CSV output, and ASCII line plots
// for reproducing the paper's figures in a terminal.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes streaming mean and variance using Welford's method.
// The zero value is an empty accumulator ready for use.
type Accumulator struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
	if !a.hasExtrema || x < a.min {
		a.min = x
	}
	if !a.hasExtrema || x > a.max {
		a.max = x
	}
	a.hasExtrema = true
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

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

// Min returns the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// Merge combines another accumulator into a (parallel-reduction friendly;
// Chan et al. pairwise update).
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	a.n = n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                  int
	Mean, StdDev       float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Summarize computes a Summary of the sample. It does not modify xs.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	s.Mean, s.StdDev = acc.Mean(), acc.StdDev()
	s.Min, s.Max = acc.Min(), acc.Max()

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 0.50)
	s.P90 = Percentile(sorted, 0.90)
	s.P95 = Percentile(sorted, 0.95)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

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

// String renders the summary in a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g min=%.4g p50=%.4g p99=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P99, s.Max)
}
