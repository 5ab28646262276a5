package geom

import "math"

// CellD is a cell of a d-dimensional hyperspherical grid: a product of a
// radial interval, an azimuth interval, and one interval per polar angle.
// Dimension d = len(PhiMin) + 2.
//
// Cells are split one axis at a time (the Polar_Grid axis-cycling rule for
// d >= 3). Splits along Theta and R are arithmetic midpoints; splits along
// Phi[m] are equal-measure points of the sin^(m+1) weight, computed with
// SinPowerSplit, so that the two halves of a cell always carry equal surface
// measure.
type CellD struct {
	RMin, RMax         float64
	ThetaMin, ThetaMax float64
	PhiMin, PhiMax     []float64
}

// FullShellD returns the cell covering the entire shell RMin <= r <= RMax of
// d-dimensional space (d >= 2).
func FullShellD(d int, rMin, rMax float64) CellD {
	if d < 2 {
		panic("geom: FullShellD requires d >= 2")
	}
	c := CellD{
		RMin: rMin, RMax: rMax,
		ThetaMin: 0, ThetaMax: TwoPi,
		PhiMin: make([]float64, d-2),
		PhiMax: make([]float64, d-2),
	}
	for m := range c.PhiMax {
		c.PhiMax[m] = math.Pi
	}
	return c
}

// Dim returns the dimension of the space the cell lives in.
func (c CellD) Dim() int { return len(c.PhiMin) + 2 }

// Contains reports whether the hyperspherical point h lies in the cell.
func (c CellD) Contains(h Hyperspherical) bool {
	if h.R < c.RMin || h.R > c.RMax {
		return false
	}
	if h.Theta < c.ThetaMin || h.Theta > c.ThetaMax {
		return false
	}
	for m := range c.PhiMin {
		if h.Phi[m] < c.PhiMin[m] || h.Phi[m] > c.PhiMax[m] {
			return false
		}
	}
	return true
}

// clone returns a deep copy (the Phi slices are shared between split
// siblings otherwise).
func (c CellD) clone() CellD {
	out := c
	out.PhiMin = append([]float64(nil), c.PhiMin...)
	out.PhiMax = append([]float64(nil), c.PhiMax...)
	return out
}

// AngularSplitPoint returns the equal-measure split point of angular axis
// `axis`, where axis 0 is Theta and axis m+1 is Phi[m].
func (c CellD) AngularSplitPoint(axis int) float64 {
	if axis == 0 {
		return (c.ThetaMin + c.ThetaMax) / 2
	}
	m := axis - 1
	return SinPowerSplit(m+1, c.PhiMin[m], c.PhiMax[m])
}

// SplitAngular splits the cell into two equal-measure halves along the given
// angular axis (0 = Theta, m+1 = Phi[m]). The low half comes first.
func (c CellD) SplitAngular(axis int) (lo, hi CellD) {
	s := c.AngularSplitPoint(axis)
	lo, hi = c.clone(), c.clone()
	if axis == 0 {
		lo.ThetaMax, hi.ThetaMin = s, s
		return lo, hi
	}
	m := axis - 1
	lo.PhiMax[m], hi.PhiMin[m] = s, s
	return lo, hi
}

// AngularSideOf reports which half of an angular split the point falls into:
// false for the low half, true for the high half (half-open split).
func (c CellD) AngularSideOf(axis int, h Hyperspherical) bool {
	s := c.AngularSplitPoint(axis)
	if axis == 0 {
		return h.Theta >= s
	}
	return h.Phi[axis-1] >= s
}

// SplitRadial splits the cell at the arithmetic radial midpoint. The inner
// half comes first.
func (c CellD) SplitRadial() (inner, outer CellD) {
	m := (c.RMin + c.RMax) / 2
	inner, outer = c.clone(), c.clone()
	inner.RMax, outer.RMin = m, m
	return inner, outer
}

// Subcells splits the cell along every axis once — the radial axis at its
// midpoint and each angular axis at its equal-measure point — yielding the
// 2^d sub-cells used by the d-dimensional Bisection step. Bit 0 of the index
// selects the upper theta half, bit m+1 the upper Phi[m] half, and the top
// bit (bit d-1) the outer radial half. For d = 2 this reproduces
// RingSegment.Quarters up to index order, and for d = 3, ShellCell.Octants.
func (c CellD) Subcells() []CellD {
	d := c.Dim()
	cells := []CellD{c.clone()}
	for axis := 0; axis < d-1; axis++ {
		next := make([]CellD, 0, len(cells)*2)
		for _, cc := range cells {
			lo, hi := cc.SplitAngular(axis)
			next = append(next, lo, hi)
		}
		cells = next
	}
	next := make([]CellD, 0, len(cells)*2)
	for _, cc := range cells {
		in, out := cc.SplitRadial()
		next = append(next, in, out)
	}
	// Reorder so that index bits follow the documented convention: the split
	// order above interleaves halves as (cell, axis-bit) pairs with the most
	// recent split in the lowest stride. Rebuild into bit-indexed order.
	ordered := make([]CellD, len(next))
	n := len(next)
	for i := range n {
		// After splitting axes 0..d-2 then radial, element i has bit layout
		// where axis a contributes bit at stride 2^(d-1-a-1)... Easier: the
		// loop structure doubles the slice each time appending (lo,hi), so
		// the *last* split varies fastest. Radial was last => bit 0 of i is
		// radial. Convert: documented index j has theta at bit 0, phi m at
		// bit m+1, radial at bit d-1.
		j := 0
		if i&1 != 0 { // radial (split last, fastest-varying)
			j |= 1 << (d - 1)
		}
		rest := i >> 1
		// Angular axis d-2 split second-to-last, ..., axis 0 split first
		// (slowest-varying).
		for a := d - 2; a >= 0; a-- {
			if rest&1 != 0 {
				j |= 1 << a
			}
			rest >>= 1
		}
		ordered[j] = next[i]
	}
	return ordered
}

// SubcellIndex returns which Subcells entry the point h falls into, using
// half-open splits consistent with the Subcells index convention.
func (c CellD) SubcellIndex(h Hyperspherical) int {
	d := c.Dim()
	j := 0
	for axis := 0; axis < d-1; axis++ {
		if c.AngularSideOf(axis, h) {
			j |= 1 << axis
		}
	}
	if h.R >= (c.RMin+c.RMax)/2 {
		j |= 1 << (d - 1)
	}
	return j
}

// Degenerate reports whether no axis of the cell can be split further at
// floating-point resolution: on every axis the point the cell is split at
// (SplitRadial's midpoint, AngularSplitPoint's equal-measure point) is not
// strictly inside the interval, so neither half would be smaller. A polar
// angle a few ulps wide can have its arithmetic midpoint inside while its
// equal-measure point lands on an endpoint; such an axis no longer shrinks.
func (c CellD) Degenerate() bool {
	inside := func(s, lo, hi float64) bool { return s > lo && s < hi }
	if inside((c.RMin+c.RMax)/2, c.RMin, c.RMax) || inside(c.AngularSplitPoint(0), c.ThetaMin, c.ThetaMax) {
		return false
	}
	for m := range c.PhiMin {
		if inside(c.AngularSplitPoint(m+1), c.PhiMin[m], c.PhiMax[m]) {
			return false
		}
	}
	return true
}
