package protocol

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/rng"
)

func sessionConfig(k int) Config {
	return Config{Source: geom.Point2{}, Scale: 1, K: k, MaxOutDegree: 6}
}

func TestNewValidation(t *testing.T) {
	cfg := sessionConfig(4)
	cfg.MaxOutDegree = 2
	if _, err := New(cfg); err == nil {
		t.Error("accepted degree 2 (< 2 core slots + 1 local)")
	}
	bad := sessionConfig(0)
	if _, err := New(bad); err == nil {
		t.Error("accepted k = 0")
	}
	if _, err := New(sessionConfig(4)); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
}

// TestNonFiniteRejected checks a session refuses a non-finite source and a
// scale outside core's range at construction, and a non-finite joiner,
// leaving its membership untouched.
func TestNonFiniteRejected(t *testing.T) {
	cfg := sessionConfig(4)
	cfg.Source = geom.Point2{X: math.Inf(-1)}
	if _, err := New(cfg); !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("New with an infinite source: err = %v, want ErrNonFinite", err)
	}
	for _, scale := range []float64{1e160, 1e-160} {
		cfg := sessionConfig(4)
		cfg.Scale = scale
		if _, err := New(cfg); !errors.Is(err, core.ErrNonFinite) {
			t.Errorf("New with scale %g: err = %v, want ErrNonFinite", scale, err)
		}
	}
	for _, scale := range []float64{core.MinScale, core.MaxScale} {
		cfg := sessionConfig(4)
		cfg.Scale = scale
		if _, err := New(cfg); err != nil {
			t.Errorf("New with scale %g: %v", scale, err)
		}
	}
	o, err := New(sessionConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	n0 := o.N()
	for _, p := range []geom.Point2{{X: math.NaN()}, {Y: math.Inf(1)}} {
		if _, _, err := o.Join(p); !errors.Is(err, core.ErrNonFinite) {
			t.Errorf("Join(%v): err = %v, want ErrNonFinite", p, err)
		}
	}
	if n := o.N(); n != n0 {
		t.Errorf("rejected joins changed the live count from %d to %d", n0, n)
	}
}

func TestSuggestK(t *testing.T) {
	if SuggestK(2) != 1 {
		t.Error("tiny session should get k = 1")
	}
	k1k := SuggestK(1000)
	k100k := SuggestK(100000)
	if k1k < 4 || k1k > 9 {
		t.Errorf("SuggestK(1000) = %d", k1k)
	}
	if k100k <= k1k {
		t.Error("k must grow with expected membership")
	}
}

func TestJoinBuildsValidTree(t *testing.T) {
	r := rng.New(1)
	o, err := New(sessionConfig(SuggestK(500)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if err := o.Audit(); err != nil {
			t.Fatalf("audit after join %d: %v", i, err)
		}
	}
	if o.N() != 501 {
		t.Fatalf("N = %d", o.N())
	}
	tr, pts, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(6); err != nil {
		t.Fatal(err)
	}
	if tr.N() != 501 || len(pts) != 501 {
		t.Fatalf("snapshot size %d", tr.N())
	}
	if o.MaxOutDegreeUsed() > 6 {
		t.Errorf("degree cap violated: %d", o.MaxOutDegreeUsed())
	}
}

func TestJoinMessageCostLogarithmic(t *testing.T) {
	// Per-join control cost must scale with k = O(log n), not with n.
	r := rng.New(2)
	o, err := New(sessionConfig(SuggestK(4000)))
	if err != nil {
		t.Fatal(err)
	}
	var first1k, last1k int
	for i := 0; i < 4000; i++ {
		_, st, err := o.Join(r.UniformDisk(1))
		if err != nil {
			t.Fatal(err)
		}
		if i < 1000 {
			first1k += st.Messages
		}
		if i >= 3000 {
			last1k += st.Messages
		}
		if st.CoreHops > o.cfg.K {
			t.Fatalf("join %d walked %d core hops with k=%d", i, st.CoreHops, o.cfg.K)
		}
	}
	avgFirst := float64(first1k) / 1000
	avgLast := float64(last1k) / 1000
	// The late average may exceed the early one (deeper cells fill later)
	// but must stay O(k), far below O(n).
	if avgLast > 4*float64(o.cfg.K)+8 {
		t.Errorf("late join cost %.1f messages not O(k) (k=%d)", avgLast, o.cfg.K)
	}
	if avgLast > 10*avgFirst+10 {
		t.Errorf("join cost grew from %.1f to %.1f — looks linear in n", avgFirst, avgLast)
	}
}

func TestDecentralizedQualityVsCentralized(t *testing.T) {
	r := rng.New(3)
	n := 2000
	pts := r.UniformDiskN(n, 1)
	o, err := New(sessionConfig(SuggestK(n)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, _, err := o.Join(p); err != nil {
			t.Fatal(err)
		}
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(6); err != nil {
		t.Fatalf("joins broke the tree: %v", err)
	}
	joined, err := o.Radius()
	if err != nil {
		t.Fatal(err)
	}
	central, err := core.Build2(geom.Point2{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	if joined < central.Scale-1e-9 {
		t.Fatalf("joined radius %v below the farthest receiver %v", joined, central.Scale)
	}
	// The source-coordinated rebuild forgets join order entirely.
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := o.Radius()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != central.Radius {
		t.Errorf("rebuilt radius %v, centralized build %v", rebuilt, central.Radius)
	}
}

func TestLeaveRepairsTree(t *testing.T) {
	r := rng.New(4)
	o, err := New(sessionConfig(4))
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
	// Remove a third of the membership in random order.
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:100] {
		if _, err := o.Leave(id); err != nil {
			t.Fatalf("leave %d: %v", id, err)
		}
		if err := o.Audit(); err != nil {
			t.Fatalf("audit after leave %d: %v", id, err)
		}
	}
	if o.N() != 201 {
		t.Fatalf("N = %d", o.N())
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(6); err != nil {
		t.Fatal(err)
	}
	if o.MaxOutDegreeUsed() > 6 {
		t.Errorf("degree cap violated after churn: %d", o.MaxOutDegreeUsed())
	}
}

func TestLeaveErrors(t *testing.T) {
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Leave(0); err == nil {
		t.Error("accepted leaving the source")
	}
	if _, err := o.Leave(42); err == nil {
		t.Error("accepted unknown node")
	}
	id, _, err := o.Join(geom.Point2{X: 0.5, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Leave(id); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Leave(id); err == nil {
		t.Error("accepted double leave")
	}
}

func TestRepReelection(t *testing.T) {
	o, err := New(sessionConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	// Two members in the same outer cell; the first becomes rep.
	a, _, err := o.Join(geom.Point2{X: 0.9, Y: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := o.Join(geom.Point2{X: 0.92, Y: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	if !o.isRep(int32(a)) || o.isRep(int32(b)) {
		t.Fatalf("rep roles wrong: a=%v b=%v", o.isRep(int32(a)), o.isRep(int32(b)))
	}
	if _, err := o.Leave(a); err != nil {
		t.Fatal(err)
	}
	if !o.isRep(int32(b)) {
		t.Error("survivor not re-elected as representative")
	}
	if o.Stats.RepElections != 1 {
		t.Errorf("elections = %d", o.Stats.RepElections)
	}
}

func TestJoinOutsidePublishedDisk(t *testing.T) {
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := o.Join(geom.Point2{X: 5, Y: 5}) // way outside Scale=1
	if err != nil {
		t.Fatal(err)
	}
	tr, pts, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(6); err != nil {
		t.Fatal(err)
	}
	// The stored position stays truthful even though the cell was clamped.
	if pts[1] != (geom.Point2{X: 5, Y: 5}) {
		t.Errorf("position altered: %v", pts[1])
	}
	_ = id
}

func TestChurnPropertyQuick(t *testing.T) {
	// Random interleavings of joins and leaves always leave a valid
	// degree-capped tree behind.
	f := func(seed uint64, opsRaw uint8) bool {
		r := rng.New(seed)
		o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 4})
		if err != nil {
			return false
		}
		var live []int
		ops := int(opsRaw)%120 + 10
		for i := 0; i < ops; i++ {
			if len(live) > 0 && r.Float64() < 0.35 {
				pick := r.Intn(len(live))
				id := live[pick]
				live[pick] = live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := o.Leave(id); err != nil {
					return false
				}
			} else {
				id, _, err := o.Join(r.UniformDisk(1))
				if err != nil {
					return false
				}
				live = append(live, id)
			}
			// Full independent audit after EVERY operation, not just at
			// the end: symmetry, spanning, degree, radius.
			if err := o.Audit(); err != nil {
				return false
			}
		}
		tr, _, _, err := o.Snapshot()
		if err != nil {
			return false
		}
		if err := tr.Validate(4); err != nil {
			return false
		}
		return o.MaxOutDegreeUsed() <= 4 && o.N() == len(live)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	r := rng.New(5)
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var wantJoinMsgs int
	for i := 0; i < 50; i++ {
		_, st, err := o.Join(r.UniformDisk(1))
		if err != nil {
			t.Fatal(err)
		}
		wantJoinMsgs += st.Messages
	}
	if o.Stats.Joins != 50 || o.Stats.JoinMessages != wantJoinMsgs {
		t.Errorf("stats: %+v (want %d msgs)", o.Stats, wantJoinMsgs)
	}
	if _, err := o.Leave(1); err != nil {
		t.Fatal(err)
	}
	if o.Stats.Leaves != 1 || o.Stats.LeaveMessages == 0 {
		t.Errorf("leave stats: %+v", o.Stats)
	}
}

// TestRefusedJoinCountsMessages: a join refused because the overlay has no
// capacity left still spent its messages, and they land in JoinMessages
// like every other exit's.
func TestRefusedJoinCountsMessages(t *testing.T) {
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 1, MaxOutDegree: 3})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := o.Join(geom.Point2{X: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.FailAbrupt(id); err != nil {
		t.Fatal(err)
	}
	before := o.Stats.JoinMessages
	_, st, err := o.Join(geom.Point2{X: 0.02})
	if err == nil || !strings.Contains(err.Error(), "out of capacity") {
		t.Fatalf("err = %v, want an out-of-capacity refusal", err)
	}
	if st.Messages == 0 {
		t.Fatal("the refused join reports no messages")
	}
	if got := o.Stats.JoinMessages - before; got != st.Messages {
		t.Errorf("JoinMessages moved by %d, the refused join sent %d", got, st.Messages)
	}
}

// TestSessionMetricsFollowStatsTable: RegisterSessionMetrics publishes
// exactly the named statsFields entries, each reading its own field, and
// leaves out the three unnamed ones.
func TestSessionMetricsFollowStatsTable(t *testing.T) {
	var st SessionStats
	reg := obs.New()
	RegisterSessionMetrics(reg, &st)
	fields := statsFields(&st)
	for i, f := range fields {
		*f.v = i + 1
	}
	snap := reg.Snapshot()
	published := 0
	for i, f := range fields {
		if f.name == "" {
			continue
		}
		published++
		if got := snap.Counter(f.name); got != int64(i+1) {
			t.Errorf("%s = %d, want %d", f.name, got, i+1)
		}
	}
	if published != len(fields)-3 || len(snap.Counters) != published {
		t.Errorf("%d of %d fields named, %d counters published; want all but 3, each once",
			published, len(fields), len(snap.Counters))
	}
}

func TestSaturationFlood(t *testing.T) {
	// Tiny degree and a flood of co-located joins: the tree stays valid and
	// within the cap (every join adds more capacity than it consumes, so
	// capacity itself is never the binding constraint).
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 1, MaxOutDegree: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, _, err := o.Join(geom.Point2{X: 0.01, Y: 0.01 * float64(i%3)}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(3); err != nil {
		t.Fatal(err)
	}
	if o.MaxOutDegreeUsed() > 3 {
		t.Errorf("degree cap violated: %d", o.MaxOutDegreeUsed())
	}
}

func TestFallbackParentWhiteBox(t *testing.T) {
	// Drive the fallback scan directly by shrinking the cap under the
	// already-built overlay: saturated nodes are skipped, the first node
	// with room (in BFS order) wins, and an impossible cap yields -1.
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	for i := 0; i < 30; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			t.Fatal(err)
		}
	}
	var st OpStats
	got := o.scanParent(o.residual, &st)
	if got < 0 || o.residual(got) == 0 {
		t.Fatalf("fallback chose %d with no room", got)
	}
	if st.Messages == 0 || o.Stats.FallbackScans != 1 {
		t.Error("fallback accounting missing")
	}
	// The descent must also land on a node with room, near the target.
	target := geom.Point2{X: 0.5, Y: 0.5}
	if d := o.descendParent(target, o.residual, &st); d < 0 || o.residual(d) == 0 {
		t.Fatalf("descent chose %d with no room", d)
	}
	// Make every node appear saturated.
	o.cfg.MaxOutDegree = 0
	if got := o.scanParent(o.residual, &st); got != -1 {
		t.Errorf("fallback found %d in a fully saturated overlay", got)
	}
	if got := o.descendParent(target, o.residual, &st); got != -1 {
		t.Errorf("descent found %d in a fully saturated overlay", got)
	}
}

func TestRadiusMatchesSnapshot(t *testing.T) {
	r := rng.New(6)
	o, err := New(sessionConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			t.Fatal(err)
		}
	}
	radius, err := o.Radius()
	if err != nil {
		t.Fatal(err)
	}
	tr, pts, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Radius(func(i, j int) float64 { return pts[i].Dist(pts[j]) })
	if math.Abs(radius-want) > 1e-12 {
		t.Errorf("radius %v vs snapshot %v", radius, want)
	}
}
