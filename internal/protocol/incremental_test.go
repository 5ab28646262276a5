package protocol

import (
	"math"
	"testing"

	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/rng"
)

// assertRebuildMatchesScratch rebuilds the overlay (usually through the
// incremental path) and requires the resulting wiring to be identical — node
// by node — to a from-scratch centralized build over the same membership,
// with the same radius and within the paper's eq. 7 bound.
func assertRebuildMatchesScratch(t testing.TB, o *Overlay) OpStats {
	t.Helper()
	st, err := o.Rebuild()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	memberIDs := make([]int32, 0, o.alive-1)
	receivers := make([]geom.Point2, 0, o.alive-1)
	for i := 1; i < len(o.nodes); i++ {
		if o.live[i] {
			memberIDs = append(memberIDs, int32(i))
			receivers = append(receivers, o.nodes[i].pos)
		}
	}
	want, err := core.Build2(o.cfg.Source, receivers,
		core.WithMaxOutDegree(o.cfg.MaxOutDegree))
	if err != nil {
		t.Fatalf("scratch build: %v", err)
	}
	if want.Tree.N() != len(memberIDs)+1 {
		t.Fatalf("scratch tree has %d nodes, want %d", want.Tree.N(), len(memberIDs)+1)
	}
	toOverlay := func(treeNode int32) int32 {
		if treeNode == 0 {
			return 0
		}
		return memberIDs[treeNode-1]
	}
	for j := 1; j < want.Tree.N(); j++ {
		child := toOverlay(int32(j))
		if wantP := toOverlay(int32(want.Tree.Parent(j))); o.nodes[child].parent != wantP {
			t.Fatalf("n=%d: node %d wired under %d, scratch build says %d",
				len(memberIDs), child, o.nodes[child].parent, wantP)
		}
	}
	if len(memberIDs) > 0 {
		r, err := o.Radius()
		if err != nil {
			t.Fatalf("radius: %v", err)
		}
		if math.Abs(r-want.Radius) > 1e-9 {
			t.Fatalf("rebuilt radius %v, scratch %v", r, want.Radius)
		}
		if r > want.Bound+1e-9 {
			t.Fatalf("radius %v exceeds eq. 7 bound %v", r, want.Bound)
		}
	}
	return st
}

// The incremental rebuild must be indistinguishable from a from-scratch
// build at every step of a churning session mixing joins, graceful leaves
// and abrupt failures.
func TestRebuildIncrementalMatchesScratchUnderChurn(t *testing.T) {
	r := rng.New(64)
	o, err := New(Config{Source: geom.Point2{X: 0.2, Y: -0.1}, Scale: 1, K: 3, MaxOutDegree: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		reliableJoin(t, o, o.cfg.Source.Add(r.UniformDisk(0.8)))
	}
	assertRebuildMatchesScratch(t, o)

	for round := 0; round < 30; round++ {
		for i := 0; i < 20; i++ {
			switch r.Intn(5) {
			case 0:
				if id := randomLiveNode(o, r); id > 0 {
					if _, err := o.Leave(id); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				if id := randomLiveNode(o, r); id > 0 {
					if err := o.FailAbrupt(id); err != nil {
						t.Fatal(err)
					}
				}
			default:
				reliableJoin(t, o, o.cfg.Source.Add(r.UniformDisk(0.8)))
			}
		}
		assertRebuildMatchesScratch(t, o)
	}

	// A rebuild with no churn since the last one is served from the cached
	// result and sends nothing.
	if st := assertRebuildMatchesScratch(t, o); st.Messages != 0 {
		t.Errorf("no-churn rebuild cost %d messages, want 0", st.Messages)
	}

	if o.Stats.IncrementalRebuilds == 0 {
		t.Fatalf("incremental path never ran (%d rebuilds)", o.Stats.Rebuilds)
	}
	if o.Stats.IncrementalRebuilds >= o.Stats.Rebuilds {
		t.Fatalf("stats claim %d incrementals out of %d rebuilds; the first must be full",
			o.Stats.IncrementalRebuilds, o.Stats.Rebuilds)
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(o.cfg.MaxOutDegree); err != nil {
		t.Fatal(err)
	}
	if err := o.Audit(); err != nil {
		t.Fatal(err)
	}
}

// FuzzIncrementalRebuild replays arbitrary churn/rebuild schedules and
// checks every rebuild against the from-scratch oracle.
func FuzzIncrementalRebuild(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 0, 3, 1, 3, 2, 3})
	f.Add(uint64(5), []byte("churn-rebuild-churn"))
	f.Add(uint64(9), []byte{3, 3, 0, 1, 2, 0, 3})
	f.Fuzz(func(t *testing.T, seed uint64, sched []byte) {
		if len(sched) > 300 {
			sched = sched[:300]
		}
		o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 4})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		for i := 0; i < 8; i++ {
			reliableJoin(t, o, r.UniformDisk(1))
		}
		for _, b := range sched {
			switch b % 4 {
			case 0:
				o.Join(r.UniformDisk(1)) // may reject at capacity; churn on
			case 1:
				if id := randomLiveNode(o, r); id > 0 {
					if _, err := o.Leave(id); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				if id := randomLiveNode(o, r); id > 0 {
					if err := o.FailAbrupt(id); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				assertRebuildMatchesScratch(t, o)
			}
		}
		assertRebuildMatchesScratch(t, o)
		tr, _, _, err := o.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(o.cfg.MaxOutDegree); err != nil {
			t.Fatal(err)
		}
	})
}
