package geom

// RingSegment is a segment of a planar annulus in polar coordinates around a
// fixed origin: radii in [RMin, RMax] and angles in [ThetaMin, ThetaMax].
// Angles are absolute (already normalized); a segment never wraps past 2*pi
// internally — the grid construction slices [0, 2*pi) into non-wrapping
// intervals. A full ring is represented with ThetaMin = 0, ThetaMax = 2*pi.
type RingSegment struct {
	RMin, RMax         float64
	ThetaMin, ThetaMax float64
}

// Angle returns the angular width of the segment.
func (s RingSegment) Angle() float64 { return s.ThetaMax - s.ThetaMin }

// Contains reports whether the polar point c lies in the segment, with
// boundaries treated as inclusive.
func (s RingSegment) Contains(c Polar) bool {
	return c.R >= s.RMin && c.R <= s.RMax &&
		c.Theta >= s.ThetaMin && c.Theta <= s.ThetaMax
}

// MidR returns the radius of the splitting arc (the arithmetic middle of the
// radial extent, as in the Bisection algorithm).
func (s RingSegment) MidR() float64 { return (s.RMin + s.RMax) / 2 }

// MidTheta returns the angle of the splitting ray.
func (s RingSegment) MidTheta() float64 { return (s.ThetaMin + s.ThetaMax) / 2 }

// Quarters splits the segment into its four Bisection sub-segments, splitting
// with the arc of radius MidR and the ray at MidTheta. The order is:
// (inner,low-angle), (inner,high-angle), (outer,low-angle), (outer,high-angle).
func (s RingSegment) Quarters() [4]RingSegment {
	mr, mt := s.MidR(), s.MidTheta()
	return [4]RingSegment{
		{RMin: s.RMin, RMax: mr, ThetaMin: s.ThetaMin, ThetaMax: mt},
		{RMin: s.RMin, RMax: mr, ThetaMin: mt, ThetaMax: s.ThetaMax},
		{RMin: mr, RMax: s.RMax, ThetaMin: s.ThetaMin, ThetaMax: mt},
		{RMin: mr, RMax: s.RMax, ThetaMin: mt, ThetaMax: s.ThetaMax},
	}
}

// Degenerate reports whether the segment is too small to split further at
// floating-point resolution: both its radial extent and its angular extent
// have collapsed (no midpoint strictly separates the halves).
func (s RingSegment) Degenerate() bool {
	radialFlat := !(s.MidR() > s.RMin && s.MidR() < s.RMax)
	angularFlat := !(s.MidTheta() > s.ThetaMin && s.MidTheta() < s.ThetaMax)
	return radialFlat && angularFlat
}

// ShellCell is a cell of a 3-D spherical grid in (R, Theta, U) coordinates:
// radii in [RMin, RMax], azimuths in [ThetaMin, ThetaMax], and cosine of the
// polar angle in [UMin, UMax]. Surface measure is uniform in (Theta, U), so
// equal-measure angular splits are midpoint splits.
type ShellCell struct {
	RMin, RMax         float64
	ThetaMin, ThetaMax float64
	UMin, UMax         float64
}

// Contains reports whether the spherical point c lies in the cell.
func (s ShellCell) Contains(c Spherical) bool {
	return c.R >= s.RMin && c.R <= s.RMax &&
		c.Theta >= s.ThetaMin && c.Theta <= s.ThetaMax &&
		c.U >= s.UMin && c.U <= s.UMax
}

// Octants splits the cell into its eight Bisection sub-cells by bisecting all
// three axes (arithmetic midpoints; the U midpoint is the equal-measure
// split). Index bits: bit 0 = upper theta half, bit 1 = upper U half,
// bit 2 = outer radial half.
func (s ShellCell) Octants() [8]ShellCell {
	mr := (s.RMin + s.RMax) / 2
	mt := (s.ThetaMin + s.ThetaMax) / 2
	mu := (s.UMin + s.UMax) / 2
	var out [8]ShellCell
	for i := range out {
		c := s
		if i&4 != 0 {
			c.RMin = mr
		} else {
			c.RMax = mr
		}
		if i&2 != 0 {
			c.UMin = mu
		} else {
			c.UMax = mu
		}
		if i&1 != 0 {
			c.ThetaMin = mt
		} else {
			c.ThetaMax = mt
		}
		out[i] = c
	}
	return out
}

// Degenerate reports whether the cell can no longer be split along any axis
// at floating-point resolution.
func (s ShellCell) Degenerate() bool {
	flat := func(lo, hi float64) bool {
		m := (lo + hi) / 2
		return !(m > lo && m < hi)
	}
	return flat(s.RMin, s.RMax) && flat(s.ThetaMin, s.ThetaMax) && flat(s.UMin, s.UMax)
}
