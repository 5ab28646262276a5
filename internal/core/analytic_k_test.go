package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/rng"
)

// These tests check the depth each build picks against the trial loop's
// definition — the deepest grid, up to the ceiling, whose interior cells
// (rings 1..k-1) all hold a receiver — read off the cells the grid itself
// assigns, and that pinning a build to a depth agrees: the chosen depth
// rebuilds the same tree, and one deeper is accepted exactly when it is
// feasible. Package grid checks the searches against the trial loop; these
// check how the builds use them.

// interiorFull reports whether cells, the receivers' cell ids in a depth-k
// grid, cover every interior cell.
func interiorFull(k int, cells []int) bool {
	seen := make([]bool, grid.NumCells(k))
	for _, c := range cells {
		seen[c] = true
	}
	for id := 1; id < grid.CellID(k, 0); id++ {
		if !seen[id] {
			return false
		}
	}
	return true
}

// checkDepth checks res, built by build() with no extra options, against
// the trial loop's depth up to kMax; cellsAt(k) returns the receivers'
// cells in the depth-k grid over res.Scale.
func checkDepth(t *testing.T, name string, res *Result, kMax int, cellsAt func(k int) []int, build func(extra ...Option) (*Result, error)) {
	t.Helper()
	if res.K == 0 {
		return // degenerate geometry: no grid
	}
	if !interiorFull(res.K, cellsAt(res.K)) {
		t.Fatalf("%s: k=%d leaves an interior cell empty", name, res.K)
	}
	deeper := interiorFull(res.K+1, cellsAt(res.K+1))
	if deeper && res.K < kMax {
		t.Fatalf("%s: picked k=%d, but depth %d is feasible and within kMax %d", name, res.K, res.K+1, kMax)
	}
	forced, err := build(WithForceK(res.K))
	if err != nil {
		t.Fatalf("%s: forcing the chosen k=%d: %v", name, res.K, err)
	}
	if !bytes.Equal(treeBytes(t, forced.Tree), treeBytes(t, res.Tree)) || forced.Radius != res.Radius || forced.Bound != res.Bound {
		t.Fatalf("%s: forcing the chosen k=%d changed the build", name, res.K)
	}
	if _, err := build(WithForceK(res.K + 1)); (err == nil) != deeper {
		t.Fatalf("%s: forcing k=%d: err = %v, but that depth is feasible: %v", name, res.K+1, err, deeper)
	}
}

func cells2(pts []geom.Point2, scale float64, k int) []int {
	g := grid.PolarGrid{K: k, Scale: scale}
	cells := make([]int, len(pts))
	for i, p := range pts {
		cells[i] = g.CellOf(p.PolarAround(geom.Point2{}))
	}
	return cells
}

func TestAnalyticKMatchesTrial2D(t *testing.T) {
	sizes := []int{0, 1, 2, 5, 50, 500, 5000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		for _, seed := range []uint64{1, 2} {
			r := rng.New(seed*1000 + uint64(n))
			for _, scale := range []float64{1, 250} {
				pts := r.UniformDiskN(n, scale)
				for _, deg := range []int{2, 4, 6} {
					build := func(extra ...Option) (*Result, error) {
						return Build2(geom.Point2{}, pts, append([]Option{WithMaxOutDegree(deg)}, extra...)...)
					}
					res, err := build()
					if err != nil {
						t.Fatal(err)
					}
					checkDepth(t, fmt.Sprintf("2d n=%d scale=%v deg=%d", n, scale, deg), res, grid.DefaultKMax(n),
						func(k int) []int { return cells2(pts, res.Scale, k) }, build)
				}
			}
		}
	}
}

func TestAnalyticKMatchesTrial3D(t *testing.T) {
	sizes := []int{1, 10, 200, 3000}
	if !testing.Short() {
		sizes = append(sizes, 30000)
	}
	for _, n := range sizes {
		pts := rng.New(uint64(77+n)).UniformBall3N(n, 1)
		build := func(extra ...Option) (*Result, error) {
			return Build3(geom.Point3{}, pts, extra...)
		}
		res, err := build()
		if err != nil {
			t.Fatal(err)
		}
		checkDepth(t, fmt.Sprintf("3d n=%d", n), res, grid.DefaultKMax(n), func(k int) []int {
			g := grid.SphereGrid3{K: k, Scale: res.Scale}
			cells := make([]int, n)
			for i, p := range pts {
				cells[i] = g.CellOf(p.SphericalAround(geom.Point3{}))
			}
			return cells
		}, build)
	}
}

func TestAnalyticKMatchesTrialD(t *testing.T) {
	for _, d := range []int{2, 4, 6} {
		for _, n := range []int{1, 30, 800} {
			pts := rng.New(uint64(10*d+n)).UniformBallDN(n, d, 3)
			build := func(extra ...Option) (*Result, error) {
				return BuildD(geom.NewVec(d), pts, extra...)
			}
			res, err := build()
			if err != nil {
				t.Fatal(err)
			}
			checkDepth(t, fmt.Sprintf("d=%d n=%d", d, n), res, grid.DefaultKMax(n), func(k int) []int {
				g, err := grid.NewGridD(d, k, res.Scale)
				if err != nil {
					t.Fatal(err)
				}
				cells := make([]int, n)
				for i, p := range pts {
					cells[i] = g.CellOf(p.ToHyperspherical())
				}
				return cells
			}, build)
		}
	}
}

// Clustered layouts stress the estimate: the analytic cap undershoots or
// overshoots the verified k, exercising the escalation path end to end.
func TestAnalyticKMatchesTrialClustered(t *testing.T) {
	r := rng.New(31)
	pts := r.ClusteredDiskN(2000, 1, []rng.Cluster{
		{Center: geom.Point2{X: 0.1, Y: 0}, Sigma: 0.01, Weight: 0.8},
		{Center: geom.Point2{X: -0.5, Y: 0.5}, Sigma: 0.3, Weight: 0.2},
	})
	build := func(extra ...Option) (*Result, error) {
		return Build2(geom.Point2{}, pts, extra...)
	}
	res, err := build()
	if err != nil {
		t.Fatal(err)
	}
	checkDepth(t, "clustered", res, grid.DefaultKMax(len(pts)),
		func(k int) []int { return cells2(pts, res.Scale, k) }, build)
}

// The kMax cap binds the search, and an infeasible forced depth fails with
// the occupancy error.
func TestAnalyticKOptionParity(t *testing.T) {
	r := rng.New(8)
	pts := r.UniformDiskN(1000, 1)
	for _, kMax := range []int{1, 3, 20} {
		build := func(extra ...Option) (*Result, error) {
			return Build2(geom.Point2{}, pts, append([]Option{WithKMax(kMax)}, extra...)...)
		}
		res, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if res.K > kMax {
			t.Fatalf("kMax=%d: picked k=%d", kMax, res.K)
		}
		checkDepth(t, fmt.Sprintf("kMax=%d", kMax), res, kMax,
			func(k int) []int { return cells2(pts, res.Scale, k) }, build)
	}
	_, err := Build2(geom.Point2{}, pts, WithForceK(15))
	if err == nil || err.Error() != "core: forced k = 15 leaves an interior grid cell empty" {
		t.Fatalf("forced k = 15 over 1000 receivers: err = %v", err)
	}
}

// TestForcedDepthFailsBeforeAllocating pins depths no receiver set of this
// size can fill: a depth-k grid has 2^k - 2 interior cells. Every build
// must reject them with the occupancy error without first sizing anything
// by 2^k.
func TestForcedDepthFailsBeforeAllocating(t *testing.T) {
	r := rng.New(9)
	p2, p3, pd := r.UniformDiskN(100, 1), r.UniformBall3N(100, 1), r.UniformBallDN(100, 4, 1)
	builds := map[string]func(k int) error{
		"Build2": func(k int) error { _, err := Build2(geom.Point2{}, p2, WithForceK(k)); return err },
		"Build3": func(k int) error { _, err := Build3(geom.Point3{}, p3, WithForceK(k)); return err },
		"BuildD": func(k int) error { _, err := BuildD(geom.NewVec(4), pd, WithForceK(k)); return err },
		"BuildState": func(k int) error {
			s, err := NewBuildState(geom.Point2{}, WithForceK(k))
			if err != nil {
				return err
			}
			for i, p := range p2 {
				s.Add(i+1, p)
			}
			_, _, err = s.Rebuild()
			return err
		},
	}
	for name, build := range builds {
		for _, k := range []int{40, grid.MaxK + 1} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := build(k)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "leaves an interior grid cell empty") {
				t.Fatalf("%s forced k = %d: err = %v", name, k, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s forced k = %d allocated %d bytes before failing", name, k, got)
			}
		}
	}
}
