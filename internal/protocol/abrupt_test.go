package protocol

import (
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

func TestFailAbruptAndDetect(t *testing.T) {
	r := rng.New(61)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 4, MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash five forwarding members without warning.
	var crashed []int
	for id := 1; id < len(o.nodes) && len(crashed) < 5; id++ {
		if o.live[id] && len(o.nodes[id].children) > 0 {
			crashed = append(crashed, id)
		}
	}
	for _, id := range crashed {
		if err := o.FailAbrupt(id); err != nil {
			t.Fatal(err)
		}
	}
	if o.Stats.AbruptFailures != 5 {
		t.Errorf("abrupt failures = %d", o.Stats.AbruptFailures)
	}
	if o.N() != 401-5 {
		t.Errorf("N = %d", o.N())
	}

	// Before repair, snapshots would see orphaned live nodes under dead
	// parents; the heartbeat sweep fixes it.
	st, err := o.DetectAndRepair()
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages == 0 {
		t.Error("repair cost no messages despite orphans")
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != o.N() {
		t.Fatalf("snapshot %d vs alive %d", tr.N(), o.N())
	}
	if err := tr.Validate(6); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second sweep finds nothing.
	st2, err := o.DetectAndRepair()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Messages != 0 {
		t.Errorf("second sweep cost %d messages", st2.Messages)
	}
}

func TestFailAbruptChain(t *testing.T) {
	// A dead parent whose parent is also dead: orphans must climb past
	// both.
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(62)
	for i := 0; i < 100; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Find a grandparent-parent chain.
	var parent, grand int
	for id := 1; id < len(o.nodes); id++ {
		p := o.nodes[id].parent
		if p > 0 && len(o.nodes[id].children) > 0 {
			parent, grand = id, int(p)
			break
		}
	}
	if parent == 0 {
		t.Skip("no two-level chain found")
	}
	if err := o.FailAbrupt(parent); err != nil {
		t.Fatal(err)
	}
	if err := o.FailAbrupt(grand); err != nil {
		t.Fatal(err)
	}
	if _, err := o.DetectAndRepair(); err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(6); err != nil {
		t.Fatal(err)
	}

	// Joins keep working after the sweep.
	if _, _, err := o.Join(geom.Point2{X: 0.3, Y: 0.3}); err != nil {
		t.Fatal(err)
	}
}

func TestFailAbruptErrors(t *testing.T) {
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FailAbrupt(0); err == nil {
		t.Error("accepted crashing the source")
	}
	if err := o.FailAbrupt(17); err == nil {
		t.Error("accepted unknown node")
	}
	id, _, err := o.Join(geom.Point2{X: 0.5, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FailAbrupt(id); err != nil {
		t.Fatal(err)
	}
	if err := o.FailAbrupt(id); err == nil {
		t.Error("accepted double crash")
	}
}

func TestChurnWithAbruptFailuresQuick(t *testing.T) {
	r := rng.New(63)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	var live []int
	dirty := false // unrepaired abrupt failures outstanding
	for step := 0; step < 400; step++ {
		switch {
		case len(live) > 5 && r.Float64() < 0.2:
			pick := r.Intn(len(live))
			id := live[pick]
			live[pick] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := o.FailAbrupt(id); err != nil {
				t.Fatal(err)
			}
			dirty = true
		case len(live) > 5 && r.Float64() < 0.2:
			if _, err := o.DetectAndRepair(); err != nil {
				t.Fatal(err)
			}
			dirty = false
		default:
			id, _, err := o.Join(r.UniformDisk(1))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		// Audit after every operation; while crashes are undetected the
		// overlay is legitimately degraded, so audit only when repaired.
		if !dirty {
			if err := o.Audit(); err != nil {
				t.Fatalf("audit after step %d: %v", step, err)
			}
		}
	}
	if _, err := o.DetectAndRepair(); err != nil {
		t.Fatal(err)
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(4); err != nil {
		t.Fatal(err)
	}
	if tr.N() != len(live)+1 {
		t.Errorf("snapshot %d vs expected %d", tr.N(), len(live)+1)
	}
}
