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
	if sub.ReferenceK() < 1 {
		t.Errorf("ReferenceK = %d on a spread population", sub.ReferenceK())
	}
	for h := 0; h < 5; h++ {
		if got := (geom.Point2{X: sub.Coord(0, h), Y: sub.Coord(1, h)}); got != hosts[h] {
			t.Errorf("Coord(·, %d) = %v, want %v", h, got, hosts[h])
		}
	}
	// NearestHost: a query at a host's own position finds it; an accept
	// filter excluding it finds someone else; rejecting everyone finds -1.
	if got := sub.NearestHost(hosts[7], nil); got != 7 {
		t.Errorf("NearestHost at hosts[7] = %d", got)
	}
	if got := sub.NearestHost(hosts[7], func(h int) bool { return h != 7 }); got == 7 || got < 0 {
		t.Errorf("NearestHost excluding 7 = %d", got)
	}
	if got := sub.NearestHost(hosts[7], func(int) bool { return false }); got != -1 {
		t.Errorf("NearestHost rejecting all = %d, want -1", got)
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

	// Degenerate population: every host at one point leaves no usable scale.
	flat, err := multigroup.NewSubstrate([]geom.Point2{{X: 1, Y: 1}, {X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if flat.ReferenceK() != 0 {
		t.Errorf("ReferenceK = %d on a coincident population, want 0", flat.ReferenceK())
	}

	// Non-2-D substrates answer Coord but have no k-d tree to query.
	sub3, err := multigroup.NewSubstrate3(r.UniformBall3N(50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sub3.NearestHost(geom.Point2{}, nil); got != -1 {
		t.Errorf("3-D NearestHost = %d, want -1", got)
	}
	if sub3.ReferenceK() != 0 {
		t.Errorf("3-D ReferenceK = %d, want 0", sub3.ReferenceK())
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
