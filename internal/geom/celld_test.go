package geom

import (
	"math"
	"math/rand/v2"
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

// The cell's former split methods, kept as the oracle for the cut-once
// functions: each sub-cell built by splitting one axis at a time, with
// every split point recomputed where it is used.

func oracleSplitPoint(c CellD, axis int) float64 {
	if axis == 0 {
		return (c.ThetaMin + c.ThetaMax) / 2
	}
	m := axis - 1
	return SinPowerSplit(m+1, c.PhiMin[m], c.PhiMax[m])
}

func oracleSplitAngular(c CellD, axis int) (lo, hi CellD) {
	s := oracleSplitPoint(c, axis)
	lo, hi = oracleClone(c), oracleClone(c)
	if axis == 0 {
		lo.ThetaMax, hi.ThetaMin = s, s
		return lo, hi
	}
	m := axis - 1
	lo.PhiMax[m], hi.PhiMin[m] = s, s
	return lo, hi
}

func oracleSplitRadial(c CellD) (inner, outer CellD) {
	m := (c.RMin + c.RMax) / 2
	inner, outer = oracleClone(c), oracleClone(c)
	inner.RMax, outer.RMin = m, m
	return inner, outer
}

func oracleClone(c CellD) CellD {
	out := c
	out.PhiMin = append([]float64(nil), c.PhiMin...)
	out.PhiMax = append([]float64(nil), c.PhiMax...)
	return out
}

// oracleSubcells splits every angular axis in turn, then the radius, and
// reorders the 2^d pieces into sub-cell index order: the last split varies
// fastest, so bit 0 of a piece's position is radial and the angular axes
// follow from d-2 down to 0.
func oracleSubcells(c CellD) []CellD {
	d := c.Dim()
	cells := []CellD{oracleClone(c)}
	for axis := 0; axis < d-1; axis++ {
		next := make([]CellD, 0, len(cells)*2)
		for _, cc := range cells {
			lo, hi := oracleSplitAngular(cc, axis)
			next = append(next, lo, hi)
		}
		cells = next
	}
	next := make([]CellD, 0, len(cells)*2)
	for _, cc := range cells {
		in, out := oracleSplitRadial(cc)
		next = append(next, in, out)
	}
	ordered := make([]CellD, len(next))
	for i := range next {
		j := 0
		if i&1 != 0 {
			j |= 1 << (d - 1)
		}
		rest := i >> 1
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

func oracleSubcellIndex(c CellD, h Hyperspherical) int {
	d := c.Dim()
	j := 0
	for axis := 0; axis < d-1; axis++ {
		s := oracleSplitPoint(c, axis)
		x := h.Theta
		if axis > 0 {
			x = h.Phi[axis-1]
		}
		if x >= s {
			j |= 1 << axis
		}
	}
	if h.R >= (c.RMin+c.RMax)/2 {
		j |= 1 << (d - 1)
	}
	return j
}

func oracleDegenerate(c CellD) bool {
	inside := func(s, lo, hi float64) bool { return s > lo && s < hi }
	if inside((c.RMin+c.RMax)/2, c.RMin, c.RMax) || inside(oracleSplitPoint(c, 0), c.ThetaMin, c.ThetaMax) {
		return false
	}
	for m := range c.PhiMin {
		if inside(oracleSplitPoint(c, m+1), c.PhiMin[m], c.PhiMax[m]) {
			return false
		}
	}
	return true
}

func sameCell(a, b CellD) bool {
	x := append([]float64{a.RMin, a.RMax, a.ThetaMin, a.ThetaMax}, append(a.PhiMin, a.PhiMax...)...)
	y := append([]float64{b.RMin, b.RMax, b.ThetaMin, b.ThetaMax}, append(b.PhiMin, b.PhiMax...)...)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// subcells returns the 2^d sub-cells of one Bisection step on c.
func subcells(c CellD) []CellD {
	cuts := c.Cuts()
	out := make([]CellD, 1<<uint(c.Dim()))
	for q := range out {
		out[q] = c.Subcell(cuts, q)
	}
	return out
}

func TestCellDSplitAngularEqualMeasure(t *testing.T) {
	c := FullShellD(4, 0.5, 1)
	cuts := c.Cuts()
	// Axis 0 (theta) is cut at the arithmetic midpoint.
	lo, hi := c.Subcell(cuts, 0), c.Subcell(cuts, 1)
	if !almostEqual(lo.ThetaMax, math.Pi, 1e-12) || !almostEqual(hi.ThetaMin, math.Pi, 1e-12) {
		t.Errorf("theta cut at %v / %v, want pi", lo.ThetaMax, hi.ThetaMin)
	}
	// Axis m+1 (Phi[m]) is cut where the sin^(m+1) measure halves.
	for axis := 1; axis <= c.Dim()-2; axis++ {
		m := axis - 1
		lo, hi := c.Subcell(cuts, 0), c.Subcell(cuts, 1<<uint(axis))
		left := SinPowerIntegral(m+1, lo.PhiMax[m]) - SinPowerIntegral(m+1, lo.PhiMin[m])
		right := SinPowerIntegral(m+1, hi.PhiMax[m]) - SinPowerIntegral(m+1, hi.PhiMin[m])
		if !almostEqual(left, right, 1e-9) {
			t.Errorf("axis %d: measures %v vs %v", axis, left, right)
		}
		if cuts[axis] != AxisCut(axis, c.PhiMin[m], c.PhiMax[m]) {
			t.Errorf("axis %d: cut %v, AxisCut %v", axis, cuts[axis], AxisCut(axis, c.PhiMin[m], c.PhiMax[m]))
		}
	}
}

func TestCellDSubcellsCountAndContainment(t *testing.T) {
	for d := 2; d <= 5; d++ {
		c := FullShellD(d, 0.4, 1)
		subs := subcells(c)
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
		cuts := c.Cuts()
		subs := subcells(c)
		for _, seed := range seeds {
			v := make(Vec, d)
			copy(v, seed[:d])
			n := v.Norm()
			if n == 0 {
				continue
			}
			v = v.Scale(0.8 / n) // radius 0.8, inside the shell
			h := v.ToHyperspherical()
			i := SubcellOf(h, cuts)
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
	subs := subcells(c)
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

// degenerate is the leaf test of one Bisection step on c.
func degenerate(c CellD) bool { return c.Degenerate(c.Cuts()) }

func TestCellDDegenerate(t *testing.T) {
	c := FullShellD(3, 0.5, 1)
	if degenerate(c) {
		t.Error("regular cell reported degenerate")
	}
	pt := CellD{
		RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2,
		PhiMin: []float64{0.5}, PhiMax: []float64{0.5},
	}
	if !degenerate(pt) {
		t.Error("point cell not reported degenerate")
	}
	// A polar angle a few ulps wide whose arithmetic midpoint is still
	// inside, but whose equal-measure cut lands on its lower end: the axis
	// no longer shrinks, so with R and theta flat the cell is degenerate.
	stalled := CellD{
		RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2,
		PhiMin: []float64{0.29999999999999993}, PhiMax: []float64{0.30000000000000027},
	}
	if m := (stalled.PhiMin[0] + stalled.PhiMax[0]) / 2; !(m > stalled.PhiMin[0] && m < stalled.PhiMax[0]) {
		t.Fatalf("midpoint %v not inside the stalled interval", m)
	}
	if s := AxisCut(1, stalled.PhiMin[0], stalled.PhiMax[0]); s > stalled.PhiMin[0] && s < stalled.PhiMax[0] {
		t.Fatalf("cut %v inside the stalled interval", s)
	}
	if !degenerate(stalled) {
		t.Error("cell whose polar cut stalls not reported degenerate")
	}
	// The same interval on Phi[1] of a 4-D cell with Phi[0] still open is
	// not degenerate.
	open := CellD{
		RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2,
		PhiMin: []float64{0.5, 0.29999999999999993}, PhiMax: []float64{0.6, 0.30000000000000027},
	}
	if degenerate(open) {
		t.Error("cell with an open polar axis reported degenerate")
	}
	for _, c := range []CellD{c, pt, stalled, open} {
		if degenerate(c) != oracleDegenerate(c) {
			t.Errorf("%+v: degenerate %v, oracle %v", c, degenerate(c), oracleDegenerate(c))
		}
	}
}

func TestCellDCloneIndependence(t *testing.T) {
	c := FullShellD(4, 0.5, 1)
	cuts := c.Cuts()
	lo, hi := c.Subcell(cuts, 0), c.Subcell(cuts, 1<<2)
	lo.PhiMin[1] = -99
	if hi.PhiMin[1] == -99 || c.PhiMin[1] == -99 {
		t.Error("sub-cells share Phi storage")
	}
}

// cellProbes returns hyperspherical points to classify in c under cuts: the
// cuts themselves and the floats beside them on every axis, NaN, the
// infinities and values outside every axis's range, each paired with the
// other axes' cuts.
func cellProbes(c CellD, cuts []float64) []Hyperspherical {
	d := c.Dim()
	var hs []Hyperspherical
	for a := 0; a < d; a++ {
		x := cuts[a]
		for _, v := range []float64{
			x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)),
			math.NaN(), math.Inf(1), math.Inf(-1), -1, 7, math.Copysign(0, -1),
		} {
			h := Hyperspherical{R: cuts[d-1], Theta: cuts[0], Phi: append([]float64(nil), cuts[1:d-1]...)}
			switch {
			case a == 0:
				h.Theta = v
			case a == d-1:
				h.R = v
			default:
				h.Phi[a-1] = v
			}
			hs = append(hs, h)
		}
	}
	return hs
}

// TestCellDCutsMatchOracle checks the cut-once functions against the
// former split methods bit for bit at d = 2..6: the 2^d sub-cells, the
// sub-cell index of probes on and beside every cut, and the degeneracy
// test, on every cell of random descents from a full shell down past
// floating-point resolution, and on the stalled cells of
// TestCellDDegenerate.
func TestCellDCutsMatchOracle(t *testing.T) {
	check := func(c CellD) {
		t.Helper()
		cuts := c.Cuts()
		if got, want := c.Degenerate(cuts), oracleDegenerate(c); got != want {
			t.Fatalf("%+v: Degenerate %v, oracle %v", c, got, want)
		}
		for q, want := range oracleSubcells(c) {
			if got := c.Subcell(cuts, q); !sameCell(got, want) {
				t.Fatalf("%+v sub-cell %d: %+v, oracle %+v", c, q, got, want)
			}
		}
		for _, h := range cellProbes(c, cuts) {
			if got, want := SubcellOf(h, cuts), oracleSubcellIndex(c, h); got != want {
				t.Fatalf("%+v at %+v: sub-cell %d, oracle %d", c, h, got, want)
			}
		}
	}
	r := rand.New(rand.NewPCG(26, 4))
	for d := 2; d <= 6; d++ {
		for path := 0; path < 8; path++ {
			c := FullShellD(d, 0.5, 1)
			for step := 0; step < 1100 && !oracleDegenerate(c); step++ {
				check(c)
				c = c.Subcell(c.Cuts(), r.IntN(1<<uint(d)))
			}
			check(c)
			if !oracleDegenerate(c) {
				t.Fatalf("d=%d path %d: %+v still splits after 1100 steps", d, path, c)
			}
		}
	}
	for _, c := range []CellD{
		{RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2,
			PhiMin: []float64{0.29999999999999993}, PhiMax: []float64{0.30000000000000027}},
		{RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2,
			PhiMin: []float64{0.5, 0.29999999999999993}, PhiMax: []float64{0.6, 0.30000000000000027}},
	} {
		check(c)
	}
}
