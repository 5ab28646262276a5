package omtree_test

import (
	"fmt"
	"math"
	"testing"

	"omtree"
)

// inCellGolden pins the trees of the builds whose in-cell Bisection
// tree_identity.golden does not reach: the out-degree-2 recursions in 3-D
// and d-D, the 3-D hybrid, d-D at other dimensions, and both standalone
// Bisections. Every input repeats some of its points, in runs long enough
// to exhaust float resolution inside a 2-D, 3-D or square cell, so there
// the coincident-point fallback, which wires in slice order, decides some
// parents. A d-D cell tests degenerate once no axis's split point lies
// strictly inside it, which for a polar angle a few ulps wide can happen
// while its midpoint still does. As with tree_identity.golden, never
// regenerate it to make a failure go away.
const inCellGolden = "testdata/incell_identity.golden"

// inCellLine fingerprints one tree: its node count, the bits of its radius
// and the SHA-256 of its parent array.
func inCellLine(name string, t *omtree.Tree, radius float64) string {
	return fmt.Sprintf("%s n=%d radius=%016x parents=%x", name, t.N(), math.Float64bits(radius), parentsHash(t))
}

// withRepeats overwrites part of pts with copies of other points: every
// 16th point repeats its predecessor, and three runs of 3, 40 and 120
// points, starting at each quarter of the slice, repeat the run's first
// point.
func withRepeats[P any](pts []P) []P {
	for i := 16; i < len(pts); i += 16 {
		pts[i] = pts[i-1]
	}
	for q, run := range []int{3, 40, 120} {
		at := (q + 1) * len(pts) / 4
		for j := 1; j < run && at+j < len(pts); j++ {
			pts[at+j] = pts[at]
		}
	}
	return pts
}

func inCellLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, res *omtree.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, inCellLine(name, res.Tree, res.Radius))
	}

	for _, n := range []int{2000, 50_000} {
		recv := withRepeats(omtree.NewRand(uint64(n)+31).UniformDiskN(n, 1))
		for _, deg := range []int{2, 6} {
			res, err := omtree.Build(omtree.Point2{}, recv, omtree.WithMaxOutDegree(deg))
			add(fmt.Sprintf("build2/n=%d/deg=%d", n, deg), res, err)
		}
	}

	for _, n := range []int{2000, 50_000} {
		recv := withRepeats(omtree.NewRand(uint64(n)+32).UniformBall3N(n, 1))
		for _, deg := range []int{2, 5, 10} {
			res, err := omtree.Build3D(omtree.Point3{}, recv, omtree.WithMaxOutDegree(deg))
			add(fmt.Sprintf("build3/n=%d/deg=%d", n, deg), res, err)
		}
	}

	for _, d := range []int{3, 5} {
		for _, n := range []int{500, 12_500} {
			recv := withRepeats(omtree.NewRand(uint64(n*d)+33).UniformBallDN(n, d, 1))
			for _, deg := range []int{0, 2} {
				var opts []omtree.Option
				name := fmt.Sprintf("buildnd/d=%d/n=%d/natural", d, n)
				if deg > 0 {
					opts = append(opts, omtree.WithMaxOutDegree(deg))
					name = fmt.Sprintf("buildnd/d=%d/n=%d/deg=%d", d, n, deg)
				}
				res, err := omtree.BuildND(make(omtree.Vec, d), recv, opts...)
				add(name, res, err)
			}
		}
	}

	for _, n := range []int{2000, 50_000} {
		pts := withRepeats(omtree.NewRand(uint64(n)+34).UniformDiskN(n, 1))
		dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
		for _, deg := range []int{2, 4} {
			tr, _, err := omtree.BuildBisection(pts, 0, deg)
			if err != nil {
				t.Fatalf("bisection n=%d deg=%d: %v", n, deg, err)
			}
			lines = append(lines, inCellLine(fmt.Sprintf("bisection/n=%d/deg=%d", n, deg), tr, tr.Radius(dist)))
			tr, _, err = omtree.BuildBisectionSquare(pts, 0, deg)
			if err != nil {
				t.Fatalf("square n=%d deg=%d: %v", n, deg, err)
			}
			lines = append(lines, inCellLine(fmt.Sprintf("square/n=%d/deg=%d", n, deg), tr, tr.Radius(dist)))
		}
	}
	return lines
}

// TestInCellIdentityGolden fails when any covered build returns a tree or
// radius that differs by a single bit from the committed fingerprint.
func TestInCellIdentityGolden(t *testing.T) {
	checkGolden(t, inCellGolden, inCellLines(t))
}

// TestBuildNDCoincidentRunHeight bounds the tree height of 3-D BuildND
// builds whose input holds one run of 4,200 coincident receivers among
// 12,500. Once the
// in-cell Bisection narrows a cell to the run's point it must hand the run
// to the k-ary fallback; a cell that never tests degenerate instead peels
// one coincident point per level, down to the recursion's depth cap, and
// leaves a chain thousands of levels tall.
func TestBuildNDCoincidentRunHeight(t *testing.T) {
	const n, run, maxHeight = 12_500, 4_200, 200
	recv := omtree.NewRand(n+35).UniformBallDN(n, 3, 1)
	for i := n / 3; i < n/3+run; i++ {
		recv[i] = recv[n/3]
	}
	for _, deg := range []int{0, 2} {
		var opts []omtree.Option
		if deg > 0 {
			opts = append(opts, omtree.WithMaxOutDegree(deg))
		}
		res, err := omtree.BuildND(make(omtree.Vec, 3), recv, opts...)
		if err != nil {
			t.Fatalf("deg=%d: %v", deg, err)
		}
		if h := res.Tree.Height(); h > maxHeight {
			t.Errorf("deg=%d: height %d, want <= %d", deg, h, maxHeight)
		}
	}
}
