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

// NumRings returns the number of rings, K+1 (rings 0..K).
func (g PolarGrid) NumRings() int { return g.K + 1 }

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
	return g.radius(i)
}

// radius is CircleRadius without the range check, for the classifier's
// guard loops: Scale * 2^((i-K)/2), read from the exact power table.
func (g PolarGrid) radius(i int) float64 { return g.Scale * exp2Half[g.K-i] }

// RingOf returns the ring containing radius r: the smallest i with
// r <= CircleRadius(i), clamped to [0, K] (points outside the disk land in
// the outermost ring, NaN in ring 0).
func (g PolarGrid) RingOf(r float64) int {
	if !(r > 0) {
		return 0
	}
	if r >= g.Scale {
		return g.K
	}
	// The guard loops compare r with the exact dividing radii, so they
	// return the smallest ring whose circle holds r from any start.
	i := firstGuess(r, g.Scale, g.K, 2)
	for i > 0 && r <= g.radius(i-1) {
		i--
	}
	for i < g.K && r > g.radius(i) {
		i++
	}
	return i
}

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

// Assign maps every polar point to its global cell id.
func (g PolarGrid) Assign(polars []geom.Polar) []int32 {
	ids := make([]int32, len(polars))
	for i, c := range polars {
		ids[i] = int32(g.CellOf(c))
	}
	return ids
}

// InteriorOccupied reports whether every cell of rings 1..K-1 holds at least
// one of the given points — the occupancy part of the paper's grid property
// 3 (ring 0 is covered by the source at the center; the outermost ring is
// exempt).
func (g PolarGrid) InteriorOccupied(polars []geom.Polar) bool {
	if g.K == 1 {
		return true // no interior rings
	}
	// Count occupancy only for rings 1..K-1; their ids span
	// [1, 2^K - 1).
	lo, hi := 1, 1<<uint(g.K)-1
	seen := make([]bool, hi-lo)
	need := hi - lo
	for _, c := range polars {
		ring := g.RingOf(c.R)
		if ring == 0 || ring == g.K {
			continue
		}
		id := CellID(ring, g.SegIndexOf(ring, c.Theta))
		if !seen[id-lo] {
			seen[id-lo] = true
			need--
			if need == 0 {
				return true
			}
		}
	}
	return need == 0
}

// MaxFeasibleK returns the largest k in [1, kMax] for which the grid's
// interior cells are all occupied by the given points, scanning downward
// from kMax ("choose the number of rings k as large as possible", §III-A).
// k = 1 is always feasible.
func MaxFeasibleK(polars []geom.Polar, scale float64, kMax int) int {
	if kMax < 1 {
		kMax = 1
	}
	for k := kMax; k > 1; k-- {
		g := PolarGrid{K: k, Scale: scale}
		if g.InteriorOccupied(polars) {
			return k
		}
	}
	return 1
}

// DefaultKMax returns a search ceiling for MaxFeasibleK: interior occupancy
// needs at least 2^k - 2 points, so k can never exceed log2(n+2); a small
// slack covers the boundary.
func DefaultKMax(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Log2(float64(n)+2)) + 1
}
