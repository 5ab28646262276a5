package grid

import (
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

func TestNewPolarGridValidation(t *testing.T) {
	if _, err := NewPolarGrid(0, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewPolarGrid(3, 0); err == nil {
		t.Error("accepted scale=0")
	}
	if _, err := NewPolarGrid(3, math.NaN()); err == nil {
		t.Error("accepted NaN scale")
	}
	if _, err := NewPolarGrid(3, 1); err != nil {
		t.Errorf("rejected valid grid: %v", err)
	}
}

func TestCircleRadii(t *testing.T) {
	g := PolarGrid{K: 4, Scale: 1}
	if got := g.CircleRadius(4); got != 1 {
		t.Errorf("outer radius = %v, want 1", got)
	}
	// Each circle bounds twice the area: r_{i+1}^2 = 2 r_i^2.
	for i := 0; i < 4; i++ {
		r0, r1 := g.CircleRadius(i), g.CircleRadius(i+1)
		if math.Abs(r1*r1-2*r0*r0) > 1e-12 {
			t.Errorf("area doubling broken at circle %d: %v, %v", i, r0, r1)
		}
	}
	// Paper's formula: r_i = 1/sqrt(2)^(k-i).
	for i := 0; i <= 4; i++ {
		want := math.Pow(1/math.Sqrt2, float64(4-i))
		if math.Abs(g.CircleRadius(i)-want) > 1e-12 {
			t.Errorf("r_%d = %v, want %v", i, g.CircleRadius(i), want)
		}
	}
}

func TestEqualAreaCells(t *testing.T) {
	g := PolarGrid{K: 5, Scale: 1}
	area := func(s geom.RingSegment) float64 {
		return (s.RMax*s.RMax - s.RMin*s.RMin) / 2 * s.Angle()
	}
	// Every cell in rings 1..K has the same area; ring 0 (the inner disk,
	// "two cells" in the paper's accounting) has twice that.
	want := area(g.Segment(1, 0))
	for ring := 1; ring <= g.K; ring++ {
		for _, idx := range []int{0, CellsInRing(ring) / 2, CellsInRing(ring) - 1} {
			if got := area(g.Segment(ring, idx)); math.Abs(got-want) > 1e-12 {
				t.Errorf("cell (%d, %d) area %v, want %v", ring, idx, got, want)
			}
		}
	}
	inner := area(g.Segment(0, 0))
	if math.Abs(inner-2*want) > 1e-12 {
		t.Errorf("inner disk area %v, want %v", inner, 2*want)
	}
	// Total area: NumCells + 1 halves (inner counts double) = pi.
	total := float64(g.NumCells()+1) * want
	if math.Abs(total-math.Pi) > 1e-9 {
		t.Errorf("total area %v, want pi", total)
	}
}

func TestRingOfBoundaries(t *testing.T) {
	g := PolarGrid{K: 4, Scale: 1}
	if got := g.RingOf(0); got != 0 {
		t.Errorf("RingOf(0) = %d", got)
	}
	if got := g.RingOf(1); got != 4 {
		t.Errorf("RingOf(1) = %d, want 4", got)
	}
	// Exactly on a circle belongs to the inner ring (boundaries inclusive
	// inward).
	for i := 0; i < g.K; i++ {
		r := g.CircleRadius(i)
		if got := g.RingOf(r); got != i {
			t.Errorf("RingOf(r_%d) = %d, want %d", i, got, i)
		}
		if got := g.RingOf(r * 1.0001); got != i+1 {
			t.Errorf("RingOf(r_%d+) = %d, want %d", i, got, i+1)
		}
	}
	// Outside the disk clamps to the outermost ring.
	if got := g.RingOf(5); got != g.K {
		t.Errorf("RingOf(5) = %d, want %d", got, g.K)
	}
}

func TestCellOfMatchesSegment(t *testing.T) {
	g := PolarGrid{K: 6, Scale: 1}
	r := rng.New(99)
	for trial := 0; trial < 2000; trial++ {
		p := r.UniformDisk(1).ToPolar()
		id := g.CellOf(p)
		ring, idx := RingIdx(id)
		seg := g.Segment(ring, idx)
		// Inclusive tolerance: boundary points may sit on either side.
		const eps = 1e-9
		if p.R < seg.RMin-eps || p.R > seg.RMax+eps ||
			p.Theta < seg.ThetaMin-eps || p.Theta > seg.ThetaMax+eps {
			t.Fatalf("point %+v assigned to cell (%d,%d) = %+v", p, ring, idx, seg)
		}
	}
}

func TestSegmentAlignment(t *testing.T) {
	// Cell (ring, j) must be angularly aligned with cells (ring+1, 2j) and
	// (ring+1, 2j+1): the two children exactly tile the parent's angle.
	g := PolarGrid{K: 5, Scale: 2}
	for ring := 0; ring < g.K; ring++ {
		for idx := 0; idx < CellsInRing(ring); idx++ {
			parent := g.Segment(ring, idx)
			a, b := ChildCells(idx)
			ca, cb := g.Segment(ring+1, a), g.Segment(ring+1, b)
			if math.Abs(ca.ThetaMin-parent.ThetaMin) > 1e-12 ||
				math.Abs(cb.ThetaMax-parent.ThetaMax) > 1e-12 ||
				math.Abs(ca.ThetaMax-cb.ThetaMin) > 1e-12 {
				t.Fatalf("children of (%d,%d) not aligned", ring, idx)
			}
			if math.Abs(ca.RMin-parent.RMax) > 1e-12 {
				t.Fatalf("children of (%d,%d) not radially adjacent", ring, idx)
			}
		}
	}
}

func TestArcLengthFormula(t *testing.T) {
	// Delta_i = 2*pi / sqrt(2)^(k+i) for the unit disk (paper §III-E).
	g := PolarGrid{K: 6, Scale: 1}
	for i := 0; i <= g.K; i++ {
		want := geom.TwoPi / math.Pow(math.Sqrt2, float64(g.K+i))
		if got := g.ArcLength(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("Delta_%d = %v, want %v", i, got, want)
		}
	}
}

func TestInnerArcSumFormula(t *testing.T) {
	// S_k = sum_{i=1}^{k-1} Delta_i, closed form from the paper.
	g := PolarGrid{K: 8, Scale: 1}
	want := geom.TwoPi / math.Pow(math.Sqrt2, float64(g.K+1)) *
		(1 - 1/math.Pow(math.Sqrt2, float64(g.K-1))) / (1 - 1/math.Sqrt2)
	if got := g.InnerArcSum(); math.Abs(got-want) > 1e-12 {
		t.Errorf("S_k = %v, closed form %v", got, want)
	}
}

func TestUpperBound(t *testing.T) {
	g := PolarGrid{K: 4, Scale: 1}
	b6 := g.UpperBound(2)
	b2 := g.UpperBound(4)
	if b6 <= 1 || b2 <= b6 {
		t.Errorf("bounds: deg6 %v, deg2 %v", b6, b2)
	}
	// Bound tightens as k grows.
	deeper := PolarGrid{K: 10, Scale: 1}
	if deeper.UpperBound(2) >= b6 {
		t.Errorf("bound did not tighten: k=4 %v, k=10 %v", b6, deeper.UpperBound(2))
	}
}

func TestInteriorOccupied(t *testing.T) {
	g := PolarGrid{K: 2, Scale: 1}
	// Interior = ring 1 only: 2 cells, split at theta = pi.
	mk := func(r, theta float64) geom.Polar { return geom.Polar{R: r, Theta: theta} }
	rMid := (g.CircleRadius(0) + g.CircleRadius(1)) / 2

	if g.InteriorOccupied([]geom.Polar{mk(rMid, 1), mk(rMid, 4)}) != true {
		t.Error("both ring-1 cells occupied but reported infeasible")
	}
	if g.InteriorOccupied([]geom.Polar{mk(rMid, 1), mk(rMid, 2)}) != false {
		t.Error("half-empty ring 1 reported feasible")
	}
	// Points in ring 0 and ring 2 don't help.
	if g.InteriorOccupied([]geom.Polar{mk(0.01, 1), mk(0.99, 4)}) != false {
		t.Error("only exterior points but reported feasible")
	}
}

func TestInteriorOccupiedK1(t *testing.T) {
	g := PolarGrid{K: 1, Scale: 1}
	if !g.InteriorOccupied(nil) {
		t.Error("k=1 has no interior cells; must be feasible")
	}
}

func TestMaxFeasibleK(t *testing.T) {
	r := rng.New(7)
	pts := r.UniformDiskN(2000, 1)
	polars := make([]geom.Polar, len(pts))
	for i, p := range pts {
		polars[i] = p.ToPolar()
	}
	k := MaxFeasibleK(polars, 1, DefaultKMax(len(pts)))
	if k < 2 {
		t.Fatalf("k = %d for 2000 uniform points", k)
	}
	// The chosen k must be feasible, and k+1 infeasible (maximality).
	if !(PolarGrid{K: k, Scale: 1}).InteriorOccupied(polars) {
		t.Error("chosen k infeasible")
	}
	if (PolarGrid{K: k + 1, Scale: 1}).InteriorOccupied(polars) {
		t.Error("k+1 feasible; MaxFeasibleK not maximal")
	}
	// Paper eq. (5): k >= 1/2 log2 n with high probability.
	if float64(k) < 0.5*math.Log2(2000) {
		t.Errorf("k = %d below the 1/2 log2 n = %.1f guarantee", k, 0.5*math.Log2(2000))
	}
}

func TestMaxFeasibleKEmptyAndTiny(t *testing.T) {
	if k := MaxFeasibleK(nil, 1, 5); k != 1 {
		t.Errorf("k = %d for no points, want 1", k)
	}
	if k := MaxFeasibleK(nil, 1, -3); k != 1 {
		t.Errorf("k = %d for kMax<1, want 1", k)
	}
}

func TestDefaultKMax(t *testing.T) {
	if DefaultKMax(0) != 1 || DefaultKMax(1) != 1 {
		t.Error("tiny n should give kMax 1")
	}
	if got := DefaultKMax(1000); got < 9 || got > 12 {
		t.Errorf("DefaultKMax(1000) = %d", got)
	}
}

func TestAssign(t *testing.T) {
	g := PolarGrid{K: 3, Scale: 1}
	polars := []geom.Polar{{R: 0.05, Theta: 1}, {R: 0.9, Theta: 3}}
	ids := []int{g.CellOf(polars[0]), g.CellOf(polars[1])}
	if ids[0] != 0 {
		t.Errorf("center point cell = %d, want 0", ids[0])
	}
	ring, _ := RingIdx(ids[1])
	if ring != 3 {
		t.Errorf("outer point ring = %d, want 3", ring)
	}
}

func TestScaleInvariance(t *testing.T) {
	// Cell assignment must be scale-invariant: scaling both the grid and
	// the points leaves ids unchanged.
	r := rng.New(5)
	g1 := PolarGrid{K: 5, Scale: 1}
	g2 := PolarGrid{K: 5, Scale: 7.3}
	for i := 0; i < 500; i++ {
		p := r.UniformDisk(1).ToPolar()
		scaled := geom.Polar{R: p.R * 7.3, Theta: p.Theta}
		if g1.CellOf(p) != g2.CellOf(scaled) {
			t.Fatalf("scale variance at %+v", p)
		}
	}
}
