package core

import (
	"errors"
	"math"
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
