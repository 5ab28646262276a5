package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// TestBuildsRejectNonFinite drives every core build entry with one
// non-finite coordinate, serially and in parallel.
func TestBuildsRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	r := rng.New(3)
	recv := r.UniformDiskN(3000, 1)
	recv3 := r.UniformBall3N(3000, 1)
	recvD := r.UniformBallDN(3000, 4, 1)
	bad2 := append([]geom.Point2(nil), recv...)
	bad2[2500] = geom.Point2{X: nan, Y: 0}
	bad3 := append([]geom.Point3(nil), recv3...)
	bad3[10].Z = -inf
	badD := append([]geom.Vec(nil), recvD...)
	badD[2999] = geom.Vec{nan, 0, 0, 0}

	for _, w := range []int{1, 2} {
		cases := map[string]func() error{
			"Build2/receiver": func() error { _, err := Build2(geom.Point2{}, bad2, WithParallelism(w)); return err },
			"Build2/source":   func() error { _, err := Build2(geom.Point2{X: inf}, recv, WithParallelism(w)); return err },
			"Build3/receiver": func() error { _, err := Build3(geom.Point3{}, bad3, WithParallelism(w)); return err },
			"Build3/source":   func() error { _, err := Build3(geom.Point3{Y: nan}, recv3, WithParallelism(w)); return err },
			"BuildD/receiver": func() error { _, err := BuildD(make(geom.Vec, 4), badD, WithParallelism(w)); return err },
			"BuildD/source":   func() error { _, err := BuildD(geom.Vec{0, 0, 0, inf}, recvD, WithParallelism(w)); return err },
		}
		for name, run := range cases {
			if err := run(); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s workers=%d: err = %v, want ErrNonFinite", name, w, err)
			}
		}
	}

	if _, err := Build2(geom.Point2{Y: inf}, nil); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Build2 with an infinite source and no receivers: err = %v, want ErrNonFinite", err)
	}
	// Finite coordinates whose distance from the source overflows cannot be
	// placed on a grid either.
	far := append([]geom.Point2(nil), recv...)
	far[9] = geom.Point2{X: math.MaxFloat64}
	if _, err := Build2(geom.Point2{X: -math.MaxFloat64}, far); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Build2 with an overflowing distance: err = %v, want ErrNonFinite", err)
	}

	if _, err := NewBuildState(geom.Point2{Y: nan}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("NewBuildState with a NaN source: err = %v, want ErrNonFinite", err)
	}
	bs, err := NewBuildState(geom.Point2{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range bad2[2400:2600] {
		bs.Add(i+1, p)
	}
	if _, _, err := bs.Rebuild(); !errors.Is(err, ErrNonFinite) {
		t.Errorf("BuildState rebuild over a NaN slot: err = %v, want ErrNonFinite", err)
	}
}

// TestBuildsRejectScaleBeyondRange checks the scale guard on every build
// path: a build whose scale lies outside [MinScale, MaxScale], where
// squared distances overflow or sink into subnormals and the build's
// comparisons tie, fails with ErrNonFinite instead of returning another
// tree; a power-of-two rescale inside the range is exact and keeps every
// parent of the unscaled build.
func TestBuildsRejectScaleBeyondRange(t *testing.T) {
	r := rng.New(3)
	recv := r.UniformDiskN(2000, 1)
	recv3 := r.UniformBall3N(2000, 1)
	recvD := r.UniformBallDN(2000, 4, 1)
	scaled2 := func(s float64) []geom.Point2 {
		out := make([]geom.Point2, len(recv))
		for i, p := range recv {
			out[i] = geom.Point2{X: p.X * s, Y: p.Y * s}
		}
		return out
	}
	builds := map[string]func(s float64, deg int) (*Result, error){
		"Build2": func(s float64, deg int) (*Result, error) {
			return Build2(geom.Point2{}, scaled2(s), WithMaxOutDegree(deg))
		},
		"Build3": func(s float64, deg int) (*Result, error) {
			pts := make([]geom.Point3, len(recv3))
			for i, p := range recv3 {
				pts[i] = geom.Point3{X: p.X * s, Y: p.Y * s, Z: p.Z * s}
			}
			return Build3(geom.Point3{}, pts, WithMaxOutDegree(deg))
		},
		"BuildD": func(s float64, deg int) (*Result, error) {
			pts := make([]geom.Vec, len(recvD))
			for i, p := range recvD {
				pts[i] = p.Scale(s)
			}
			return BuildD(make(geom.Vec, 4), pts, WithMaxOutDegree(deg))
		},
		"BuildState": func(s float64, deg int) (*Result, error) {
			bs, err := NewBuildState(geom.Point2{}, WithMaxOutDegree(deg))
			if err != nil {
				return nil, err
			}
			for i, p := range scaled2(s) {
				bs.Add(i+1, p)
			}
			res, _, err := bs.Rebuild()
			return res, err
		},
	}
	for name, build := range builds {
		for _, deg := range []int{0, 2} {
			want, err := build(1, deg)
			if err != nil {
				t.Fatalf("%s deg=%d: %v", name, deg, err)
			}
			for _, s := range []float64{1e160, 1e-160} {
				if _, err := build(s, deg); !errors.Is(err, ErrNonFinite) {
					t.Errorf("%s deg=%d scale %g: err = %v, want ErrNonFinite", name, deg, s, err)
				}
			}
			for _, s := range []float64{0x1p400, 0x1p-400} {
				got, err := build(s, deg)
				if err != nil {
					t.Errorf("%s deg=%d scale %g: %v", name, deg, s, err)
					continue
				}
				if !slices.Equal(got.Tree.Parents(), want.Tree.Parents()) {
					t.Errorf("%s deg=%d scale %g: parents differ from the unscaled build", name, deg, s)
				}
			}
		}
	}
}
