package main

import (
	"encoding/json"
	"testing"

	"omtree"
	"omtree/internal/invariant"
)

// FuzzPointsFile feeds arbitrary bytes to the points-file decoder and, when
// they decode and validate, builds over them as `omtree build` does, plus
// both standalone Bisections at dim 2. Nothing may panic, and every tree a
// build returns must pass the invariant audit at the requested out-degree.
// Inputs past dim 4 or 256 points are skipped, so one input takes
// milliseconds.
func FuzzPointsFile(f *testing.F) {
	small := [][]float64{{0, 0}, {1, 0}, {0, 1}, {-1, 0.5}, {0.3, -0.8}, {0.9, 0.9}, {-0.6, -0.6}, {0.1, 0.2}}
	huge := make([][]float64, len(small))
	for i, p := range small {
		huge[i] = []float64{p[0] * 1e160, p[1] * 1e160}
	}
	coincident := [][]float64{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	for _, pts := range [][][]float64{small, huge, coincident} {
		data, err := json.Marshal(pointsFile{Dim: 2, Points: pts})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(2))
		f.Add(data, uint8(6))
	}
	f.Add([]byte(`{"dim": 3, "points": [[0,0,0],[1,0,0],[0,1,0],[0,0,1],[1,1,1]]}`), uint8(0))
	f.Add([]byte(`{"dim": 4, "points": [[0,0,0,0],[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}`), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, degree uint8) {
		pf, err := decodePoints(data)
		if err != nil || pf.Dim > 4 || len(pf.Points) > 256 {
			return
		}
		deg := int(degree % 12)
		// audit checks the tree's shape and degree, and its radius when dist
		// is set.
		audit := func(name string, tr *omtree.Tree, maxDeg int, dist func(i, j int) float64, radius float64) {
			if v := invariant.Check(tr, len(pf.Points), 0, maxDeg, dist, radius); len(v) > 0 {
				t.Fatalf("%s at degree %d: %v", name, deg, v)
			}
		}

		var opts []omtree.Option
		if deg > 0 {
			opts = append(opts, omtree.WithMaxOutDegree(deg))
		}
		if res, err := buildAny(pf, opts); err == nil {
			maxDeg := res.MaxOutDegree
			if deg > 0 && deg < maxDeg {
				t.Fatalf("build at degree %d capped at %d", deg, maxDeg)
			}
			dist := func(i, j int) float64 {
				return omtree.Vec(pf.Points[i]).Dist(omtree.Vec(pf.Points[j]))
			}
			audit("build", res.Tree, maxDeg, dist, res.Radius)
		}
		if pf.Dim != 2 {
			return
		}
		pts := make([]omtree.Point2, len(pf.Points))
		for i, p := range pf.Points {
			pts[i] = omtree.Point2{X: p[0], Y: p[1]}
		}
		if tr, _, err := omtree.BuildBisection(pts, 0, deg); err == nil {
			audit("BuildBisection", tr, deg, nil, 0)
		}
		if tr, _, err := omtree.BuildBisectionSquare(pts, 0, deg); err == nil {
			audit("BuildBisectionSquare", tr, deg, nil, 0)
		}
	})
}
