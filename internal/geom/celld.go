package geom

import "math"

// CellD is a cell of a d-dimensional hyperspherical grid: a product of a
// radial interval, an azimuth interval, and one interval per polar angle.
// Dimension d = len(PhiMin) + 2.
//
// The grid cuts a cell one angular axis at a time (the Polar_Grid
// axis-cycling rule for d >= 3), and a Bisection step cuts every axis at
// once. Either way an axis is cut where AxisCut says: Theta at its
// midpoint, Phi[m] at the equal-measure point of the sin^(m+1) weight, so
// that the two halves of a cell always carry equal surface measure; a
// Bisection step cuts R at its arithmetic midpoint.
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

// AxisCut returns where a d-dimensional cell whose angular axis `axis` (0
// = Theta, m+1 = Phi[m]) spans [lo, hi] is cut along that axis: Theta at
// its midpoint, Phi[m] at the equal-measure point of its sin^(m+1) weight.
// The grid's angular tables and the in-cell Bisection both cut here.
func AxisCut(axis int, lo, hi float64) float64 {
	if axis == 0 {
		return (lo + hi) / 2
	}
	return SinPowerSplit(axis, lo, hi)
}

// Cuts returns where one Bisection step cuts the cell, one value per
// sub-cell index bit: cuts[a] on angular axis a (AxisCut) and cuts[d-1] at
// the radial midpoint. Sub-cell q lies on the upper side of every cut whose
// bit q sets, and on the lower side of the others. For d = 2 the sub-cells
// are RingSegment.Quarters, and for d = 3, ShellCell.Octants, up to index
// order.
func (c CellD) Cuts() []float64 {
	d := c.Dim()
	cuts := make([]float64, d)
	cuts[0] = AxisCut(0, c.ThetaMin, c.ThetaMax)
	for m := range c.PhiMin {
		cuts[m+1] = AxisCut(m+1, c.PhiMin[m], c.PhiMax[m])
	}
	cuts[d-1] = (c.RMin + c.RMax) / 2
	return cuts
}

// SubcellOf returns the index of the sub-cell of cuts holding h: bit a set
// when h's coordinate on angular axis a is at least cuts[a], bit d-1 when
// h.R is at least cuts[d-1]. A value on a cut goes to the upper side, and
// NaN to the lower one.
func SubcellOf(h Hyperspherical, cuts []float64) int {
	q := 0
	if h.Theta >= cuts[0] {
		q = 1
	}
	for m, phi := range h.Phi {
		if phi >= cuts[m+1] {
			q |= 2 << uint(m)
		}
	}
	if h.R >= cuts[len(cuts)-1] {
		q |= 1 << uint(len(cuts)-1)
	}
	return q
}

// Subcell returns sub-cell q of the step that cuts the cell at cuts.
func (c CellD) Subcell(cuts []float64, q int) CellD {
	s := CellD{
		RMin: c.RMin, RMax: c.RMax,
		ThetaMin: c.ThetaMin, ThetaMax: c.ThetaMax,
		PhiMin: append([]float64(nil), c.PhiMin...),
		PhiMax: append([]float64(nil), c.PhiMax...),
	}
	side(q&1 != 0, cuts[0], &s.ThetaMin, &s.ThetaMax)
	for m := range s.PhiMin {
		side(q>>uint(m+1)&1 != 0, cuts[m+1], &s.PhiMin[m], &s.PhiMax[m])
	}
	d := c.Dim()
	side(q>>uint(d-1)&1 != 0, cuts[d-1], &s.RMin, &s.RMax)
	return s
}

// side narrows the interval [*lo, *hi] to its part above cut when upper is
// set, and to its part below cut otherwise.
func side(upper bool, cut float64, lo, hi *float64) {
	if upper {
		*lo = cut
	} else {
		*hi = cut
	}
}

// Degenerate reports whether no axis of the cell can be split further at
// floating-point resolution: no cut of cuts (the cell's Cuts) is strictly
// inside its axis's interval, so neither side would be smaller. A polar
// angle a few ulps wide can have its arithmetic midpoint inside while its
// equal-measure point lands on an endpoint; such an axis no longer shrinks.
func (c CellD) Degenerate(cuts []float64) bool {
	inside := func(s, lo, hi float64) bool { return s > lo && s < hi }
	if inside(cuts[len(cuts)-1], c.RMin, c.RMax) || inside(cuts[0], c.ThetaMin, c.ThetaMax) {
		return false
	}
	for m := range c.PhiMin {
		if inside(cuts[m+1], c.PhiMin[m], c.PhiMax[m]) {
			return false
		}
	}
	return true
}
