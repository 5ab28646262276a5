package geom

import (
	"math"
	"testing"
)

func TestFullShellDCoversSphere(t *testing.T) {
	for d := 2; d <= 5; d++ {
		c := FullShellD(d, 0.5, 1)
		if c.Dim() != d {
			t.Errorf("d=%d: Dim = %d", d, c.Dim())
		}
		// A bundle of unit-norm-ish vectors must all be contained after
		// scaling into the radial range.
		for _, seed := range [][]float64{
			{1, 0, 0, 0, 0}, {0, -1, 0, 0, 0}, {0.3, 0.3, -0.3, 0.3, 0.3},
			{-1, -1, -1, -1, -1}, {0, 0, 1, 0, 0},
		} {
			v := make(Vec, d)
			copy(v, seed[:d])
			n := v.Norm()
			if n == 0 {
				continue
			}
			v = v.Scale(0.75 / n)
			if !c.Contains(v.ToHyperspherical()) {
				t.Errorf("d=%d: shell does not contain %v", d, v)
			}
		}
	}
}

func TestCellDSplitAngularEqualMeasure(t *testing.T) {
	c := FullShellD(4, 0.5, 1)
	// Axis 0 (theta) splits at the arithmetic midpoint.
	lo, hi := c.SplitAngular(0)
	if !almostEqual(lo.ThetaMax, math.Pi, 1e-12) || !almostEqual(hi.ThetaMin, math.Pi, 1e-12) {
		t.Errorf("theta split at %v / %v, want pi", lo.ThetaMax, hi.ThetaMin)
	}
	// Axis m+1 (Phi[m]) splits the sin^(m+1) measure equally.
	for axis := 1; axis <= c.Dim()-2; axis++ {
		m := axis - 1
		lo, hi := c.SplitAngular(axis)
		left := SinPowerIntegral(m+1, lo.PhiMax[m]) - SinPowerIntegral(m+1, lo.PhiMin[m])
		right := SinPowerIntegral(m+1, hi.PhiMax[m]) - SinPowerIntegral(m+1, hi.PhiMin[m])
		if !almostEqual(left, right, 1e-9) {
			t.Errorf("axis %d: measures %v vs %v", axis, left, right)
		}
	}
}

func TestCellDSubcellsCountAndContainment(t *testing.T) {
	for d := 2; d <= 5; d++ {
		c := FullShellD(d, 0.4, 1)
		subs := c.Subcells()
		if len(subs) != 1<<d {
			t.Fatalf("d=%d: %d subcells, want %d", d, len(subs), 1<<d)
		}
		for i, s := range subs {
			if s.RMin < c.RMin-1e-12 || s.RMax > c.RMax+1e-12 {
				t.Errorf("d=%d sub %d: radial range escapes parent", d, i)
			}
			if s.ThetaMin < c.ThetaMin-1e-12 || s.ThetaMax > c.ThetaMax+1e-12 {
				t.Errorf("d=%d sub %d: theta range escapes parent", d, i)
			}
		}
		// Index-bit convention: bit d-1 selects the outer radial half.
		mid := (c.RMin + c.RMax) / 2
		for i, s := range subs {
			wantOuter := i&(1<<(d-1)) != 0
			isOuter := s.RMin >= mid-1e-12
			if wantOuter != isOuter {
				t.Errorf("d=%d sub %d: radial bit mismatch", d, i)
			}
		}
	}
}

func TestCellDSubcellIndexConsistent(t *testing.T) {
	dims := []int{2, 3, 4}
	seeds := [][]float64{
		{0.6, 0.1, -0.2, 0.3}, {-0.4, -0.4, 0.4, -0.1},
		{0.05, 0.7, 0.1, 0.1}, {0.5, -0.5, -0.5, 0.5},
	}
	for _, d := range dims {
		c := FullShellD(d, 0.3, 1)
		subs := c.Subcells()
		for _, seed := range seeds {
			v := make(Vec, d)
			copy(v, seed[:d])
			n := v.Norm()
			if n == 0 {
				continue
			}
			v = v.Scale(0.8 / n) // radius 0.8, inside the shell
			h := v.ToHyperspherical()
			i := c.SubcellIndex(h)
			if i < 0 || i >= len(subs) {
				t.Fatalf("d=%d: index %d out of range", d, i)
			}
			if !subs[i].Contains(h) {
				t.Errorf("d=%d: subcell %d does not contain %v (h=%+v cell=%+v)", d, i, v, h, subs[i])
			}
		}
	}
}

func TestCellDMatchesRingSegmentIn2D(t *testing.T) {
	c := FullShellD(2, 0.5, 1)
	subs := c.Subcells()
	rs := RingSegment{RMin: 0.5, RMax: 1, ThetaMin: 0, ThetaMax: TwoPi}
	qs := rs.Quarters()
	// CellD order: bit 0 = theta-high, bit 1 = radial-outer.
	// RingSegment order: index 0..3 = (inner,lo),(inner,hi),(outer,lo),(outer,hi).
	pairs := [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	for _, p := range pairs {
		s, q := subs[p[0]], qs[p[1]]
		if !almostEqual(s.RMin, q.RMin, 1e-12) || !almostEqual(s.RMax, q.RMax, 1e-12) ||
			!almostEqual(s.ThetaMin, q.ThetaMin, 1e-12) || !almostEqual(s.ThetaMax, q.ThetaMax, 1e-12) {
			t.Errorf("subcell %d = %+v, quarter %d = %+v", p[0], s, p[1], q)
		}
	}
}

func TestCellDDegenerate(t *testing.T) {
	c := FullShellD(3, 0.5, 1)
	if c.Degenerate() {
		t.Error("regular cell reported degenerate")
	}
	pt := CellD{
		RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2,
		PhiMin: []float64{0.5}, PhiMax: []float64{0.5},
	}
	if !pt.Degenerate() {
		t.Error("point cell not reported degenerate")
	}
	// A polar angle a few ulps wide whose arithmetic midpoint is still
	// inside, but whose equal-measure split lands on its lower end: the axis
	// no longer shrinks, so with R and theta flat the cell is degenerate.
	stalled := CellD{
		RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2,
		PhiMin: []float64{0.29999999999999993}, PhiMax: []float64{0.30000000000000027},
	}
	if m := (stalled.PhiMin[0] + stalled.PhiMax[0]) / 2; !(m > stalled.PhiMin[0] && m < stalled.PhiMax[0]) {
		t.Fatalf("midpoint %v not inside the stalled interval", m)
	}
	if s := stalled.AngularSplitPoint(1); s > stalled.PhiMin[0] && s < stalled.PhiMax[0] {
		t.Fatalf("split point %v inside the stalled interval", s)
	}
	if !stalled.Degenerate() {
		t.Error("cell whose polar split stalls not reported degenerate")
	}
	// The same interval on Phi[1] of a 4-D cell with Phi[0] still open is
	// not degenerate.
	open := CellD{
		RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2,
		PhiMin: []float64{0.5, 0.29999999999999993}, PhiMax: []float64{0.6, 0.30000000000000027},
	}
	if open.Degenerate() {
		t.Error("cell with an open polar axis reported degenerate")
	}
}

func TestCellDCloneIndependence(t *testing.T) {
	c := FullShellD(4, 0.5, 1)
	lo, hi := c.SplitAngular(2)
	lo.PhiMin[1] = -99
	if hi.PhiMin[1] == -99 || c.PhiMin[1] == -99 {
		t.Error("split halves share Phi storage")
	}
}
