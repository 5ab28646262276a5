package multigroup_test

import (
	"errors"
	"math"
	"testing"

	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/multigroup"
	"omtree/internal/obs"
	"omtree/internal/rng"
)

// TestSubstrateAccessors exercises the read-only query surface groups and
// the protocol layer lean on.
func TestSubstrateAccessors(t *testing.T) {
	r := rng.New(5)
	hosts := r.UniformDiskN(200, 1)
	reg := obs.New()
	sub, err := multigroup.NewSubstrate(hosts, multigroup.WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 5; h++ {
		if got := (geom.Point2{X: sub.Coord(0, h), Y: sub.Coord(1, h)}); got != hosts[h] {
			t.Errorf("Coord(·, %d) = %v, want %v", h, got, hosts[h])
		}
	}
	// The attached observer sees labeled group churn.
	g, err := sub.NewGroup(multigroup.GroupConfig{Source: []float64{0, 0}, ID: "acc"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Join(3); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range reg.Snapshot().Counters {
		if c.Name == `multigroup/joins{group="acc"}` && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Error("WithObserver registry missing the labeled join counter")
	}

	// Degenerate population: every host at one point is still a substrate.
	if _, err := multigroup.NewSubstrate([]geom.Point2{{X: 1, Y: 1}, {X: 1, Y: 1}}); err != nil {
		t.Fatal(err)
	}

	// Non-2-D substrates answer Coord on every axis.
	balls := r.UniformBall3N(50, 1)
	sub3, err := multigroup.NewSubstrate3(balls)
	if err != nil {
		t.Fatal(err)
	}
	if got := (geom.Point3{X: sub3.Coord(0, 9), Y: sub3.Coord(1, 9), Z: sub3.Coord(2, 9)}); got != balls[9] {
		t.Errorf("3-D Coord(·, 9) = %v, want %v", got, balls[9])
	}
}

// TestGroupCertificateAndDirty covers the kinetic-facing accessors: the
// eq. 7 certificate of the last 2-D build and the dirty-cell fraction,
// plus their fixed answers off the incremental (2-D) path.
func TestGroupCertificateAndDirty(t *testing.T) {
	r := rng.New(6)
	sub, err := multigroup.NewSubstrate(r.UniformDiskN(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.NewGroup(multigroup.GroupConfig{Source: []float64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Certificate(); c != (core.Certificate{}) {
		t.Errorf("certificate before any build: %+v", c)
	}
	for h := 0; h < 200; h++ {
		if err := g.Join(h); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	cert := g.Certificate()
	if cert.Bound != res.Bound || cert.Radius != res.Radius {
		t.Errorf("certificate %+v does not match build result (bound %v, radius %v)",
			cert, res.Bound, res.Radius)
	}
	if df := g.DirtyFraction(); df != 0 {
		t.Errorf("dirty fraction %v right after a build, want 0", df)
	}
	if err := g.Leave(42); err != nil {
		t.Fatal(err)
	}
	if df := g.DirtyFraction(); df <= 0 {
		t.Errorf("dirty fraction %v after churn, want > 0", df)
	}

	// d-dimensional groups have no incremental state: every build is from
	// scratch, so the whole tree is always "dirty" and there is no retained
	// certificate.
	axes := make([][]float64, 4)
	for a := range axes {
		axes[a] = make([]float64, 40)
		for h := range axes[a] {
			axes[a][h] = r.Float64()
		}
	}
	subD, err := multigroup.NewSubstrateND(axes)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := subD.NewGroup(multigroup.GroupConfig{Source: []float64{0, 0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if df := gd.DirtyFraction(); df != 1 {
		t.Errorf("4-D dirty fraction = %v, want 1", df)
	}
	if c := gd.Certificate(); c != (core.Certificate{}) {
		t.Errorf("4-D certificate = %+v, want zero", c)
	}
}

// TestSubstrateRejectsNonFinite checks every substrate constructor and the
// group source reject a non-finite coordinate with core.ErrNonFinite.
func TestSubstrateRejectsNonFinite(t *testing.T) {
	hosts := rng.New(6).UniformDiskN(50, 1)
	bad := append([]geom.Point2(nil), hosts...)
	bad[20].X = math.NaN()
	if _, err := multigroup.NewSubstrate(bad); !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("NewSubstrate: err = %v, want ErrNonFinite", err)
	}
	axes := [][]float64{{0, 1, 2}, {0, math.Inf(1), 0}, {1, 1, 1}}
	if _, err := multigroup.NewSubstrateND(axes); !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("NewSubstrateND: err = %v, want ErrNonFinite", err)
	}
	if _, err := multigroup.NewSubstrate3([]geom.Point3{{X: 1}, {Z: math.NaN()}}); !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("NewSubstrate3: err = %v, want ErrNonFinite", err)
	}
	sub, err := multigroup.NewSubstrate(hosts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.NewGroup(multigroup.GroupConfig{Source: []float64{0, math.Inf(-1)}}); !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("NewGroup: err = %v, want ErrNonFinite", err)
	}
}
