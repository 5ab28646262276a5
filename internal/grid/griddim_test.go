package grid

import (
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

func TestNewGridDValidation(t *testing.T) {
	if _, err := NewGridD(1, 3, 1); err == nil {
		t.Error("accepted d=1")
	}
	if _, err := NewGridD(3, 0, 1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := NewGridD(3, 99, 1); err == nil {
		t.Error("accepted absurd k")
	}
	if _, err := NewGridD(3, 3, math.Inf(1)); err == nil {
		t.Error("accepted infinite scale")
	}
	if _, err := NewGridD(4, 5, 2); err != nil {
		t.Errorf("rejected valid grid: %v", err)
	}
}

func TestGridDRadiiVolumeDoubling(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		g, err := NewGridD(d, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			v0 := math.Pow(g.SphereRadius(i), float64(d))
			v1 := math.Pow(g.SphereRadius(i+1), float64(d))
			if math.Abs(v1-2*v0) > 1e-12 {
				t.Errorf("d=%d: volume doubling broken at sphere %d", d, i)
			}
		}
	}
}

func TestGridDCellEqualMeasure(t *testing.T) {
	// Every cell of a shell must carry equal surface measure:
	// (theta width) * prod_m (I_{m+1}(phiMax) - I_{m+1}(phiMin)).
	for _, d := range []int{3, 4, 5} {
		g, err := NewGridD(d, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, shell := range []int{2, 4, 5} {
			m := CellsInRing(shell)
			measure := func(idx int) float64 {
				c := g.Cell(shell, idx)
				area := c.ThetaMax - c.ThetaMin
				for j := range c.PhiMin {
					area *= geom.SinPowerIntegral(j+1, c.PhiMax[j]) -
						geom.SinPowerIntegral(j+1, c.PhiMin[j])
				}
				return area
			}
			want := measure(0)
			for _, idx := range []int{1, m / 2, m - 1} {
				if got := measure(idx); math.Abs(got-want) > 1e-9*want {
					t.Errorf("d=%d shell=%d cell %d measure %v, want %v", d, shell, idx, got, want)
				}
			}
		}
	}
}

func TestGridDCellOfMatchesCell(t *testing.T) {
	r := rng.New(31)
	for _, d := range []int{2, 3, 4} {
		g, err := NewGridD(d, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			h := r.UniformBallD(d, 1).ToHyperspherical()
			id := g.CellOf(h)
			shell, idx := RingIdx(id)
			cell := g.Cell(shell, idx)
			const eps = 1e-9
			if h.R < cell.RMin-eps || h.R > cell.RMax+eps ||
				h.Theta < cell.ThetaMin-eps || h.Theta > cell.ThetaMax+eps {
				t.Fatalf("d=%d: point %+v misassigned to %+v", d, h, cell)
			}
			for m := range cell.PhiMin {
				if h.Phi[m] < cell.PhiMin[m]-eps || h.Phi[m] > cell.PhiMax[m]+eps {
					t.Fatalf("d=%d: phi[%d] outside cell", d, m)
				}
			}
		}
	}
}

func TestGridD3MatchesSphereGrid3(t *testing.T) {
	// In 3-D, the GridD construction (phi split with sin weight) must agree
	// with SphereGrid3 (u midpoint split): same cell partition, because
	// 1 - cos(phi) halves exactly when u = cos(phi) halves.
	gd, err := NewGridD(3, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	gs := SphereGrid3{K: 5, Scale: 1}
	r := rng.New(17)
	for trial := 0; trial < 1000; trial++ {
		p := r.UniformBall3(1)
		idD := gd.CellOf(p.Vec().ToHyperspherical())
		idS := gs.CellOf(p.ToSpherical())
		if idD != idS {
			t.Fatalf("cell mismatch for %v: GridD %d, SphereGrid3 %d", p, idD, idS)
		}
	}
}

func TestGridD2MatchesPolarGrid(t *testing.T) {
	gd, err := NewGridD(2, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	gp := PolarGrid{K: 6, Scale: 1}
	r := rng.New(19)
	for trial := 0; trial < 1000; trial++ {
		p := r.UniformDisk(1)
		idD := gd.CellOf(p.Vec().ToHyperspherical())
		idP := gp.CellOf(p.ToPolar())
		if idD != idP {
			t.Fatalf("cell mismatch for %v: GridD %d, PolarGrid %d", p, idD, idP)
		}
	}
}

func TestGridDDimensionMismatchPanics(t *testing.T) {
	g, err := NewGridD(4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.CellOf(geom.Vec{1, 0, 0}.ToHyperspherical()) // 3-D point, 4-D grid
}

func TestGridDInteriorOccupiedAndMaxK(t *testing.T) {
	r := rng.New(41)
	d := 4
	pts := r.UniformBallDN(3000, d, 1)
	hs := make([]geom.Hyperspherical, len(pts))
	for i, p := range pts {
		hs[i] = p.ToHyperspherical()
	}
	g, err := MaxFeasibleKD(d, hs, 1, DefaultKMax(len(pts)))
	if err != nil {
		t.Fatal(err)
	}
	if g.K < 2 {
		t.Fatalf("k = %d for 3000 uniform 4-ball points", g.K)
	}
	if !g.InteriorOccupied(hs) {
		t.Error("chosen k infeasible")
	}
	bigger, err := NewGridD(d, g.K+1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bigger.InteriorOccupied(hs) {
		t.Error("k+1 feasible; MaxFeasibleKD not maximal")
	}
}

func TestGridDUpperBoundTightens(t *testing.T) {
	shallow, err := NewGridD(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := NewGridD(3, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deep.UpperBound(2) >= shallow.UpperBound(2) {
		t.Errorf("bound did not tighten: %v vs %v", deep.UpperBound(2), shallow.UpperBound(2))
	}
}

func TestGridDAssign(t *testing.T) {
	g, err := NewGridD(3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs := []geom.Hyperspherical{
		geom.Vec{0.001, 0, 0}.ToHyperspherical(),
		geom.Vec{0, 0.97, 0}.ToHyperspherical(),
	}
	ids := []int{g.CellOf(hs[0]), g.CellOf(hs[1])}
	if ids[0] != 0 {
		t.Errorf("center cell = %d", ids[0])
	}
	shell, _ := RingIdx(ids[1])
	if shell != 3 {
		t.Errorf("outer shell = %d", shell)
	}
}
