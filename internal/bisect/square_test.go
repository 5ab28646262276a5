package bisect

import (
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

func TestSquareQuadrants(t *testing.T) {
	s := Square{MinX: 1, MinY: 2, Side: 4}
	qs := s.Quadrants()
	for i, q := range qs {
		if q.Side != 2 {
			t.Errorf("quadrant %d side %v", i, q.Side)
		}
		// Quadrant corners stay inside the parent.
		if !s.Contains(geom.Point2{X: q.MinX, Y: q.MinY}) ||
			!s.Contains(geom.Point2{X: q.MinX + q.Side, Y: q.MinY + q.Side}) {
			t.Errorf("quadrant %d escapes parent", i)
		}
	}
	// Index convention: bit 0 = right, bit 1 = upper.
	if qs[1].MinX != 3 || qs[2].MinY != 4 {
		t.Error("quadrant ordering wrong")
	}
}

func TestSquareDegenerate(t *testing.T) {
	if (Square{Side: 1}).Degenerate() {
		t.Error("unit square degenerate")
	}
	if !(Square{MinX: 1, MinY: 1, Side: 0}).Degenerate() {
		t.Error("zero square not degenerate")
	}
}

func TestBuildTreeSquareBasics(t *testing.T) {
	r := rng.New(41)
	for _, deg := range []int{2, 3, 4, 6} {
		for _, n := range []int{1, 2, 3, 20, 500} {
			pts := r.UniformDiskN(n, 1)
			tr, rep, err := BuildTreeSquare(pts, 0, deg)
			if err != nil {
				t.Fatalf("deg=%d n=%d: %v", deg, n, err)
			}
			capDeg := 4
			if deg < 4 {
				capDeg = 2
			}
			if err := tr.Validate(capDeg); err != nil {
				t.Fatalf("deg=%d n=%d: %v", deg, n, err)
			}
			if n < 2 {
				continue
			}
			dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
			radius := tr.Radius(dist)
			if radius > rep.PathBound+1e-9 {
				t.Errorf("deg=%d n=%d: radius %v > bound %v", deg, n, radius, rep.PathBound)
			}
			if radius < rep.LowerBound-1e-9 {
				t.Errorf("deg=%d n=%d: radius %v < lower %v", deg, n, radius, rep.LowerBound)
			}
		}
	}
}

func TestBuildTreeSquareErrors(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 1}}
	if _, _, err := BuildTreeSquare(pts, 0, 1); err == nil {
		t.Error("accepted degree 1")
	}
	if _, _, err := BuildTreeSquare(pts, 5, 4); err == nil {
		t.Error("accepted bad source")
	}
}

func TestBuildTreeSquareCoincident(t *testing.T) {
	pts := make([]geom.Point2, 15)
	tr, _, err := BuildTreeSquare(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestSquareVsPolarComparable(t *testing.T) {
	// Two independent constant-factor constructions over the same points
	// must land within a small factor of each other.
	r := rng.New(42)
	pts := r.UniformDiskN(1000, 1)
	dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
	sq, _, err := BuildTreeSquare(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	pol, _, err := BuildTree(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	rs, rp := sq.Radius(dist), pol.Radius(dist)
	if rs > 4*rp || rp > 4*rs {
		t.Errorf("square %v vs polar %v — wildly inconsistent", rs, rp)
	}
}

func TestBuildTreeSquareDeterministic(t *testing.T) {
	pts := rng.New(43).UniformDiskN(300, 1)
	a, _, err := BuildTreeSquare(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := BuildTreeSquare(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N(); i++ {
		if a.Parent(i) != b.Parent(i) {
			t.Fatal("non-deterministic")
		}
	}
}
