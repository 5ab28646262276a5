package grid

import (
	"fmt"
	"math"

	"omtree/internal/geom"
)

// PolarGrid is the 2-D polar grid of the Polar_Grid algorithm: K dividing
// circles at radii Scale/sqrt(2)^(K-i), i = 0..K-1, partitioning the disk of
// radius Scale into rings 0..K (ring 0 the inner disk, ring K the outermost
// annulus), with ring i divided into 2^i equal-area segments.
type PolarGrid struct {
	K     int
	Scale float64
}

// NewPolarGrid validates the parameters and returns the grid.
func NewPolarGrid(k int, scale float64) (PolarGrid, error) {
	if k < 1 || k > MaxK {
		return PolarGrid{}, fmt.Errorf("grid: polar grid needs k in [1, %d], got %d", MaxK, k)
	}
	if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return PolarGrid{}, fmt.Errorf("grid: polar grid needs positive finite scale, got %v", scale)
	}
	return PolarGrid{K: k, Scale: scale}, nil
}

// NumCells returns the total number of cells, 2^(K+1) - 1.
func (g PolarGrid) NumCells() int { return NumCells(g.K) }

// CircleRadius returns the radius of circle i for i in [0, K]; circle K is
// the outer boundary at Scale, and circle i < K has radius
// Scale / sqrt(2)^(K-i), so each circle bounds twice the area of the one
// inside it.
func (g PolarGrid) CircleRadius(i int) float64 {
	if i < 0 || i > g.K {
		panic(fmt.Sprintf("grid: circle index %d out of [0, %d]", i, g.K))
	}
	return g.Scale * exp2Half[g.K-i]
}

// RingOf returns the ring containing radius r: the smallest i with
// r <= CircleRadius(i), clamped to [0, K] (points outside the disk land in
// the outermost ring, NaN in ring 0).
func (g PolarGrid) RingOf(r float64) int { return ringOf(r, g.Scale, g.K, 2, exp2Half) }

// SegIndexOf returns the angular segment index of theta within ring:
// floor(theta / (2*pi / 2^ring)), clamped to the valid range.
func (g PolarGrid) SegIndexOf(ring int, theta float64) int {
	m := CellsInRing(ring)
	j := int(theta / geom.TwoPi * float64(m))
	if j < 0 {
		return 0
	}
	if j >= m {
		return m - 1
	}
	return j
}

// CellOf returns the global cell id containing the polar point c.
func (g PolarGrid) CellOf(c geom.Polar) int {
	ring := g.RingOf(c.R)
	return CellID(ring, g.SegIndexOf(ring, c.Theta))
}

// Segment returns the geometric bounds of cell (ring, idx).
func (g PolarGrid) Segment(ring, idx int) geom.RingSegment {
	if ring < 0 || ring > g.K {
		panic(fmt.Sprintf("grid: ring %d out of [0, %d]", ring, g.K))
	}
	m := CellsInRing(ring)
	if idx < 0 || idx >= m {
		panic(fmt.Sprintf("grid: segment index %d out of [0, %d)", idx, m))
	}
	var rMin float64
	if ring > 0 {
		rMin = g.CircleRadius(ring - 1)
	}
	width := geom.TwoPi / float64(m)
	return geom.RingSegment{
		RMin:     rMin,
		RMax:     g.CircleRadius(ring),
		ThetaMin: float64(idx) * width,
		ThetaMax: float64(idx+1) * width,
	}
}

// ArcLength returns Delta_i, the arc length of a segment of ring i:
// 2*pi*r_i / 2^i (paper §III-E). This is the angular detour charged per core
// hop in the upper bound (7).
func (g PolarGrid) ArcLength(ring int) float64 {
	return geom.TwoPi * g.CircleRadius(ring) / float64(CellsInRing(ring))
}

// InnerArcSum returns S_k, the sum of arc lengths of the inner circles
// 1..K-1 (paper §III-E), the total angular detour of a worst-case core path.
func (g PolarGrid) InnerArcSum() float64 {
	var s float64
	for i := 1; i <= g.K-1; i++ {
		s += g.ArcLength(i)
	}
	return s
}

// UpperBound evaluates the paper's inequality (7) at j = 0 — the loosest
// (and reported) instantiation: Scale + coeff*Delta_0 + S_k, where coeff is
// 2 for the out-degree-6 tree and 4 for the out-degree-2 tree (the arc term
// doubles when two links are spent per cell, §IV-A).
func (g PolarGrid) UpperBound(arcCoeff float64) float64 {
	return g.Scale + arcCoeff*g.ArcLength(0) + g.InnerArcSum()
}

// DefaultKMax returns a ceiling for the k searches: interior occupancy
// needs at least 2^k - 2 points, so k can never exceed log2(n+2); a small
// slack covers the boundary.
func DefaultKMax(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Log2(float64(n)+2)) + 1
}
