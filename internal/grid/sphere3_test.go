package grid

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

func TestSphereRadiiVolumeDoubling(t *testing.T) {
	g := SphereGrid3{K: 5, Scale: 1}
	if got := g.SphereRadius(5); got != 1 {
		t.Errorf("outer radius = %v", got)
	}
	for i := 0; i < 5; i++ {
		r0, r1 := g.SphereRadius(i), g.SphereRadius(i+1)
		if math.Abs(r1*r1*r1-2*r0*r0*r0) > 1e-12 {
			t.Errorf("volume doubling broken at sphere %d", i)
		}
	}
}

func TestShellOfBoundaries(t *testing.T) {
	g := SphereGrid3{K: 4, Scale: 2}
	if g.ShellOf(0) != 0 {
		t.Error("ShellOf(0) != 0")
	}
	if g.ShellOf(2) != 4 {
		t.Error("ShellOf(scale) != K")
	}
	if g.ShellOf(100) != 4 {
		t.Error("ShellOf beyond scale not clamped")
	}
	for i := 0; i < g.K; i++ {
		r := g.SphereRadius(i)
		if got := g.ShellOf(r); got != i {
			t.Errorf("ShellOf(r_%d) = %d", i, got)
		}
		if got := g.ShellOf(r * 1.0001); got != i+1 {
			t.Errorf("ShellOf(r_%d+eps) = %d", i, got)
		}
	}
}

func TestSphereCellEqualMeasure(t *testing.T) {
	// All cells of a shell must carry the same (theta, u)-measure, which is
	// the spherical surface measure.
	g := SphereGrid3{K: 6, Scale: 1}
	for shell := 0; shell <= g.K; shell++ {
		m := CellsInRing(shell)
		want := geom.TwoPi * 2 / float64(m)
		for _, idx := range []int{0, m / 3, m - 1} {
			c := g.Cell(shell, idx)
			got := (c.ThetaMax - c.ThetaMin) * (c.UMax - c.UMin)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("cell (%d,%d) measure %v, want %v", shell, idx, got, want)
			}
		}
	}
}

func TestSphereCellOfMatchesCell(t *testing.T) {
	g := SphereGrid3{K: 6, Scale: 1}
	r := rng.New(123)
	for trial := 0; trial < 2000; trial++ {
		s := r.UniformBall3(1).ToSpherical()
		id := g.CellOf(s)
		shell, idx := RingIdx(id)
		cell := g.Cell(shell, idx)
		const eps = 1e-9
		if s.R < cell.RMin-eps || s.R > cell.RMax+eps ||
			s.Theta < cell.ThetaMin-eps || s.Theta > cell.ThetaMax+eps ||
			s.U < cell.UMin-eps || s.U > cell.UMax+eps {
			t.Fatalf("point %+v assigned to cell (%d,%d) = %+v", s, shell, idx, cell)
		}
	}
}

func TestSphereCellAlignment(t *testing.T) {
	// Children 2j, 2j+1 of cell (shell, j) must tile the parent's angular
	// box exactly (split along the next axis).
	g := SphereGrid3{K: 5, Scale: 1}
	for shell := 0; shell < g.K; shell++ {
		for idx := 0; idx < CellsInRing(shell); idx++ {
			p := g.Cell(shell, idx)
			a, b := ChildCells(idx)
			ca, cb := g.Cell(shell+1, a), g.Cell(shell+1, b)
			// Union of children's angular boxes equals parent's box.
			thetaLo := math.Min(ca.ThetaMin, cb.ThetaMin)
			thetaHi := math.Max(ca.ThetaMax, cb.ThetaMax)
			uLo := math.Min(ca.UMin, cb.UMin)
			uHi := math.Max(ca.UMax, cb.UMax)
			if math.Abs(thetaLo-p.ThetaMin) > 1e-12 || math.Abs(thetaHi-p.ThetaMax) > 1e-12 ||
				math.Abs(uLo-p.UMin) > 1e-12 || math.Abs(uHi-p.UMax) > 1e-12 {
				t.Fatalf("children of (%d,%d) don't tile parent", shell, idx)
			}
			if math.Abs(ca.RMin-p.RMax) > 1e-12 {
				t.Fatalf("children of (%d,%d) not radially adjacent", shell, idx)
			}
		}
	}
}

func TestSphereMaxArcShrinks(t *testing.T) {
	g := SphereGrid3{K: 8, Scale: 1}
	// Arc detours must shrink with shell depth fast enough that InnerArcSum
	// stays bounded; sanity-check monotone trend over several shells.
	if g.MaxArc(1) <= g.MaxArc(5) {
		t.Errorf("MaxArc not shrinking: %v vs %v", g.MaxArc(1), g.MaxArc(5))
	}
	if g.UpperBound(2) <= 1 {
		t.Errorf("UpperBound = %v", g.UpperBound(2))
	}
	deeper := SphereGrid3{K: 14, Scale: 1}
	if deeper.UpperBound(2) >= g.UpperBound(2) {
		t.Error("bound did not tighten with k")
	}
}

func TestSphereInteriorOccupiedAndMaxK(t *testing.T) {
	r := rng.New(77)
	pts := r.UniformBall3N(5000, 1)
	sph := make([]geom.Spherical, len(pts))
	for i, p := range pts {
		sph[i] = p.ToSpherical()
	}
	k := MaxFeasibleK3(sph, 1, DefaultKMax(len(pts)))
	if k < 2 {
		t.Fatalf("k = %d for 5000 uniform ball points", k)
	}
	if !(SphereGrid3{K: k, Scale: 1}).InteriorOccupied(sph) {
		t.Error("chosen k infeasible")
	}
	if (SphereGrid3{K: k + 1, Scale: 1}).InteriorOccupied(sph) {
		t.Error("k+1 feasible; MaxFeasibleK3 not maximal")
	}
}

func TestSphereAssign(t *testing.T) {
	g := SphereGrid3{K: 3, Scale: 1}
	sph := []geom.Spherical{{R: 0.01, Theta: 1, U: 0}, {R: 0.95, Theta: 5, U: -0.9}}
	ids := []int{g.CellOf(sph[0]), g.CellOf(sph[1])}
	if ids[0] != 0 {
		t.Errorf("center cell = %d", ids[0])
	}
	shell, _ := RingIdx(ids[1])
	if shell != 3 {
		t.Errorf("outer shell = %d", shell)
	}
}

// TestSphereSplitsConcurrentFirstUse has several goroutines build one
// depth's boundary tables at once, as concurrent builds may, and classify
// with them: every index must be the walk's, and the race detector checks
// how the tables are published.
func TestSphereSplitsConcurrentFirstUse(t *testing.T) {
	const k = 17
	sphereSplitsByK[k].Store(nil)
	r := rng.New(19)
	sph := make([]geom.Spherical, 2000)
	for i := range sph {
		sph[i] = r.UniformBall3(1).ToSpherical()
	}
	errs := make([]string, 4)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := SphereGrid3{K: k, Scale: 1}
			for _, c := range sph {
				shell := g.ShellOf(c.R)
				if got, want := g.SegIndexOf(shell, c.Theta, c.U), oracleSegIndex3(shell, c.Theta, c.U); got != want {
					errs[w] = fmt.Sprintf("goroutine %d: %+v in shell %d: index %d, walk %d", w, c, shell, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}
