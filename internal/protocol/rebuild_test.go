package protocol

import (
	"math"
	"testing"

	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/rng"
)

func TestRebuildResetsToCentralizedQuality(t *testing.T) {
	r := rng.New(2000)
	n := 2000
	pts := r.UniformDiskN(n, 1)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: SuggestK(n), MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, _, err := o.Join(p); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := o.Radius()
	if err != nil {
		t.Fatal(err)
	}

	st, err := o.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages < 2*n {
		t.Errorf("rebuild cost %d messages, want >= %d (report + assign per member)", st.Messages, 2*n)
	}
	rebuilt, err := o.Radius()
	if err != nil {
		t.Fatal(err)
	}
	central, err := core.Build2(geom.Point2{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rebuilt-central.Radius) > 1e-9 {
		t.Errorf("rebuilt radius %v, centralized %v", rebuilt, central.Radius)
	}
	if rebuilt >= raw {
		t.Errorf("rebuild did not improve: %v -> %v", raw, rebuilt)
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(6); err != nil {
		t.Fatal(err)
	}
	if o.Stats.Rebuilds != 1 || o.Stats.RebuildMessages != st.Messages {
		t.Errorf("rebuild stats: %+v", o.Stats)
	}
}

func TestJoinAndLeaveAfterRebuild(t *testing.T) {
	r := rng.New(7)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 4, MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, 300)
	for i := 0; i < 300; i++ {
		id, _, err := o.Join(r.UniformDisk(1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	// Continue churning against the rebuilt state.
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			if _, err := o.Leave(ids[i]); err != nil {
				t.Fatalf("leave after rebuild: %v", err)
			}
		} else if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			t.Fatalf("join after rebuild: %v", err)
		}
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(6); err != nil {
		t.Fatal(err)
	}
	if o.MaxOutDegreeUsed() > 6 {
		t.Errorf("degree cap violated: %d", o.MaxOutDegreeUsed())
	}
}

// TestRebuildLeavesRingZeroToSource checks that a rebuild, like every other
// election site, leaves ring 0 without a representative: the source anchors
// it, and a member marked there would reserve two core slots it can never
// use.
func TestRebuildLeavesRingZeroToSource(t *testing.T) {
	const n = 2000
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: SuggestK(n), MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rng.New(4).UniformDiskN(n, 1) {
		if _, _, err := o.Join(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if len(o.members[0]) == 0 {
		t.Fatal("no member landed in ring 0; the check below would be vacuous")
	}
	if o.reps[0] != -1 {
		t.Errorf("reps[0] = %d after Rebuild, want -1", o.reps[0])
	}
	for cell := 1; cell < len(o.members); cell++ {
		if len(o.members[cell]) > 0 && o.reps[cell] < 0 {
			t.Errorf("cell %d has %d members and no representative", cell, len(o.members[cell]))
		}
	}
}

func TestRebuildEmptySession(t *testing.T) {
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Rebuild(); err != nil {
		t.Fatalf("rebuild of source-only session: %v", err)
	}
	if o.N() != 1 {
		t.Errorf("N = %d", o.N())
	}
}
