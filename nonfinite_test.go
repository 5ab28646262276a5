package omtree_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"omtree"
)

// withPoint returns a copy of pts with pts[i] replaced by p.
func withPoint(pts []omtree.Point2, i int, p omtree.Point2) []omtree.Point2 {
	out := append([]omtree.Point2(nil), pts...)
	out[i] = p
	return out
}

// TestBuildRejectsNaNReceiver is the NaN probe: a NaN receiver used to
// build with err == nil, dropping out of the radius maximum.
func TestBuildRejectsNaNReceiver(t *testing.T) {
	recv := withPoint(omtree.NewRand(5).UniformDiskN(200, 1), 17, omtree.Point2{X: math.NaN(), Y: 0.5})
	res, err := omtree.Build(omtree.Point2{}, recv)
	if !errors.Is(err, omtree.ErrNonFinite) {
		t.Fatalf("Build with a NaN receiver: err = %v, result %+v; want ErrNonFinite", err, res)
	}
}

// TestBuildRejectsInfReceiver is the +Inf probe: a receiver at +Inf used
// to build with err == nil and radius/bound = NaN.
func TestBuildRejectsInfReceiver(t *testing.T) {
	recv := withPoint(omtree.NewRand(5).UniformDiskN(200, 1), 3, omtree.Point2{X: math.Inf(1), Y: 0})
	res, err := omtree.Build(omtree.Point2{}, recv)
	if !errors.Is(err, omtree.ErrNonFinite) {
		t.Fatalf("Build with a +Inf receiver: err = %v, result %+v; want ErrNonFinite", err, res)
	}
}

// TestNonFiniteErrorIndependentOfWorkers checks the rejection names the
// lowest bad receiver whatever the worker count, so a parallel build's
// error is as deterministic as its tree.
func TestNonFiniteErrorIndependentOfWorkers(t *testing.T) {
	recv := omtree.NewRand(8).UniformDiskN(5000, 1)
	recv = withPoint(recv, 4000, omtree.Point2{X: math.NaN()})
	recv = withPoint(recv, 1200, omtree.Point2{Y: math.Inf(-1)})
	var want string
	for _, w := range []int{1, 2, 3, 8} {
		_, err := omtree.Build(omtree.Point2{}, recv, omtree.WithParallelism(w))
		if !errors.Is(err, omtree.ErrNonFinite) {
			t.Fatalf("workers=%d: err = %v, want ErrNonFinite", w, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: error %q, want %q", w, err, want)
		}
	}
}

// TestBuildStateNonFiniteJoinRecovers adds a NaN member to a built state:
// the incremental path must hand it to the full rebuild, which rejects it,
// and removing the member must make the state build again.
func TestBuildStateNonFiniteJoinRecovers(t *testing.T) {
	recv := omtree.NewRand(10).UniformDiskN(400, 1)
	bs, err := omtree.NewBuildState(omtree.Point2{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range recv {
		bs.Add(i+1, p)
	}
	if _, _, err := bs.Rebuild(); err != nil {
		t.Fatal(err)
	}
	bad := len(recv) + 1
	bs.Add(bad, omtree.Point2{X: math.NaN(), Y: 0.2})
	if _, _, err := bs.Rebuild(); !errors.Is(err, omtree.ErrNonFinite) {
		t.Fatalf("rebuild with a NaN member: err = %v, want ErrNonFinite", err)
	}
	bs.Remove(bad)
	res, _, err := bs.Rebuild()
	if err != nil {
		t.Fatalf("rebuild after removing the NaN member: %v", err)
	}
	want, err := omtree.Build(omtree.Point2{}, recv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != want.Radius || res.K != want.K {
		t.Errorf("recovered state builds radius %v k %d, fresh build %v k %d", res.Radius, res.K, want.Radius, want.K)
	}
}

// TestBisectionRejectsNonFinite covers the standalone Bisection builds,
// which used to return a tree and a nil error for a NaN or infinite point.
// The error names the lowest bad index.
func TestBisectionRejectsNonFinite(t *testing.T) {
	pts := []omtree.Point2{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 0.5, Y: 0.5}, {X: 0.3, Y: 0.2}}
	builds := map[string]func([]omtree.Point2) error{
		"BuildBisection": func(p []omtree.Point2) error {
			_, _, err := omtree.BuildBisection(p, 0, 4)
			return err
		},
		"BuildBisectionSquare": func(p []omtree.Point2) error {
			_, _, err := omtree.BuildBisectionSquare(p, 0, 4)
			return err
		},
	}
	for name, build := range builds {
		for _, bad := range []omtree.Point2{{X: math.NaN(), Y: 0.5}, {X: 0.5, Y: math.Inf(1)}} {
			err := build(withPoint(withPoint(pts, 3, bad), 2, bad))
			if !errors.Is(err, omtree.ErrNonFinite) {
				t.Fatalf("%s with %v: err = %v, want ErrNonFinite", name, bad, err)
			}
			if !strings.Contains(err.Error(), "point 2 ") {
				t.Errorf("%s: error %q does not name point 2", name, err)
			}
		}
		if err := build(pts); err != nil {
			t.Errorf("%s on finite points: %v", name, err)
		}
	}
}

// TestBisectionsScaleRange holds the standalone Bisections to Build's scale
// contract. A power-of-two rescale inside [2^-450, 2^450] keeps every parent
// of the unscaled tree: BuildBisection's covering circle used to overflow
// past 2^341 and change 1,998 of 2,000 parents at 2^400. A scale outside the
// range fails with ErrNonFinite: BuildBisectionSquare used to panic at 1e160
// and degree 2, and BuildBisection to run for half a minute there.
func TestBisectionsScaleRange(t *testing.T) {
	pts := omtree.NewRand(3).UniformDiskN(2000, 1)
	scaled := func(s float64) []omtree.Point2 {
		out := make([]omtree.Point2, len(pts))
		for i, p := range pts {
			out[i] = omtree.Point2{X: p.X * s, Y: p.Y * s}
		}
		return out
	}
	builds := map[string]func(p []omtree.Point2, deg int) (*omtree.Tree, error){
		"BuildBisection": func(p []omtree.Point2, deg int) (*omtree.Tree, error) {
			tr, _, err := omtree.BuildBisection(p, 0, deg)
			return tr, err
		},
		"BuildBisectionSquare": func(p []omtree.Point2, deg int) (*omtree.Tree, error) {
			tr, _, err := omtree.BuildBisectionSquare(p, 0, deg)
			return tr, err
		},
	}
	for name, build := range builds {
		for _, deg := range []int{6, 2} {
			want, err := build(pts, deg)
			if err != nil {
				t.Fatalf("%s deg=%d: %v", name, deg, err)
			}
			for _, s := range []float64{0x1p400, 0x1p-400} {
				got, err := build(scaled(s), deg)
				if err != nil {
					t.Errorf("%s deg=%d scale %g: %v", name, deg, s, err)
					continue
				}
				if moved := countMoved(got, want); moved > 0 {
					t.Errorf("%s deg=%d scale %g: %d of %d parents differ from the unscaled tree", name, deg, s, moved, len(pts))
				}
			}
			for _, s := range []float64{1e160, 1e-160} {
				if _, err := build(scaled(s), deg); !errors.Is(err, omtree.ErrNonFinite) {
					t.Errorf("%s deg=%d scale %g: err = %v, want ErrNonFinite", name, deg, s, err)
				}
			}
		}
	}
}

// countMoved counts the nodes whose parent differs between two trees over
// the same nodes.
func countMoved(a, b *omtree.Tree) int {
	moved := 0
	for v := 0; v < a.N(); v++ {
		if a.Parent(v) != b.Parent(v) {
			moved++
		}
	}
	return moved
}
