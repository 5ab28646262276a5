package omtree_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"omtree"
)

func TestFacadeBuildQuickstart(t *testing.T) {
	r := omtree.NewRand(1)
	receivers := r.UniformDiskN(1000, 1)
	source := omtree.Point2{}

	res, err := omtree.Build(source, receivers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != omtree.VariantNatural || res.MaxOutDegree != 6 {
		t.Fatalf("variant %v degree %d", res.Variant, res.MaxOutDegree)
	}
	if err := res.Tree.Validate(6); err != nil {
		t.Fatal(err)
	}
	// The facade Dist helper matches the internal metric.
	dist := omtree.Dist(source, receivers)
	if got := res.Tree.Radius(dist); math.Abs(got-res.Radius) > 1e-9 {
		t.Errorf("radius %v vs reported %v", got, res.Radius)
	}
}

func TestFacadeBinaryAndOptions(t *testing.T) {
	r := omtree.NewRand(2)
	receivers := r.UniformDiskN(300, 1)
	res, err := omtree.Build(omtree.Point2{}, receivers,
		omtree.WithMaxOutDegree(2), omtree.WithKMax(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Variant != omtree.VariantBinary || res.K > 4 {
		t.Fatalf("variant %v K %d", res.Variant, res.K)
	}
}

func TestFacade3DAndND(t *testing.T) {
	r := omtree.NewRand(3)
	recv3 := r.UniformBall3N(400, 1)
	res3, err := omtree.Build3D(omtree.Point3{}, recv3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.MaxOutDegree != 10 {
		t.Errorf("3-D natural degree = %d", res3.MaxOutDegree)
	}
	recvD := r.UniformBallDN(200, 4, 1)
	resD, err := omtree.BuildND(make(omtree.Vec, 4), recvD)
	if err != nil {
		t.Fatal(err)
	}
	if resD.MaxOutDegree != 18 {
		t.Errorf("4-D natural degree = %d", resD.MaxOutDegree)
	}
	if resD.Radius > resD.Bound {
		t.Error("radius above bound")
	}
	_ = omtree.Dist3D(omtree.Point3{}, recv3)
	_ = omtree.DistND(make(omtree.Vec, 4), recvD)
}

// TestFacadeBuildNDDeepKMax checks that a depth cap deeper than any grid
// the input can fill changes nothing in d-D: n points fill no grid deeper
// than log2(n+2), so BuildND and a 4-D group return the default-cap tree,
// as Build and Build3D do.
func TestFacadeBuildNDDeepKMax(t *testing.T) {
	same := func(name string, got, want *omtree.Result) {
		t.Helper()
		if got.K != want.K || math.Float64bits(got.Radius) != math.Float64bits(want.Radius) ||
			!slices.Equal(got.Tree.Parents(), want.Tree.Parents()) {
			t.Errorf("%s: K=%d radius=%v, default cap K=%d radius=%v", name, got.K, got.Radius, want.K, want.Radius)
		}
	}
	r := omtree.NewRand(26)
	recv3 := r.UniformBallDN(1000, 3, 1)
	want, err := omtree.BuildND(make(omtree.Vec, 3), recv3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kMax := range []int{29, 40} {
		got, err := omtree.BuildND(make(omtree.Vec, 3), recv3, omtree.WithKMax(kMax))
		if err != nil {
			t.Fatalf("BuildND WithKMax(%d): %v", kMax, err)
		}
		same(fmt.Sprintf("BuildND WithKMax(%d)", kMax), got, want)
	}

	hosts := r.UniformBallDN(1000, 4, 1)
	axes := make([][]float64, 4)
	for a := range axes {
		axes[a] = make([]float64, len(hosts))
		for h, p := range hosts {
			axes[a][h] = p[a]
		}
	}
	sub, err := omtree.NewSubstrateND(axes)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.NewGroup(omtree.GroupConfig{Source: make([]float64, 4), KMax: 29})
	if err != nil {
		t.Fatal(err)
	}
	for h := range hosts {
		if err := g.Join(h); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := g.Build()
	if err != nil {
		t.Fatalf("4-D group with KMax 29: %v", err)
	}
	want, err = omtree.BuildND(make(omtree.Vec, 4), hosts)
	if err != nil {
		t.Fatal(err)
	}
	same("4-D group KMax 29", got, want)
}

func TestFacadeBisection(t *testing.T) {
	r := omtree.NewRand(4)
	pts := r.UniformDiskN(200, 1)
	tr, rep, err := omtree.BuildBisection(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(4); err != nil {
		t.Fatal(err)
	}
	dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
	if tr.Radius(dist) > rep.PathBound+1e-9 {
		t.Error("radius above certified bound")
	}
}

func TestFacadeBaselinesAndExact(t *testing.T) {
	r := omtree.NewRand(5)
	pts := append([]omtree.Point2{{}}, r.UniformDiskN(6, 1)...)
	dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
	n := len(pts)

	_, opt, err := omtree.ExactOptimal(n, 0, dist, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := omtree.GreedyClosest(n, 0, dist, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Radius(dist) < opt-1e-9 {
		t.Error("greedy beat exact")
	}
	if _, err := omtree.Star(n, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := omtree.BalancedKary(n, 0, dist, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := omtree.BandwidthLatency(n, 0, dist, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := omtree.RandomTree(n, 0, 2, r); err != nil {
		t.Fatal(err)
	}
	if omtree.MaxExactNodes < 8 {
		t.Error("exact limit suspiciously low")
	}
}

func TestFacadeSimAndRepair(t *testing.T) {
	r := omtree.NewRand(6)
	receivers := r.UniformDiskN(300, 1)
	source := omtree.Point2{}
	res, err := omtree.Build(source, receivers)
	if err != nil {
		t.Fatal(err)
	}
	dist := omtree.Dist(source, receivers)
	sim, err := omtree.NewSim(res.Tree, omtree.SimConfig{Latency: dist})
	if err != nil {
		t.Fatal(err)
	}
	d := sim.Multicast()
	if math.Abs(d.MaxDelay-res.Radius) > 1e-9 {
		t.Errorf("simulated %v vs radius %v", d.MaxDelay, res.Radius)
	}

	victim := int(res.Tree.Children(0)[0])
	rep, err := omtree.Repair(res.Tree, []int{victim}, 6, dist, omtree.RepairBestDelay)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tree.N() != res.Tree.N()-1 {
		t.Error("repair size wrong")
	}
}

func TestFacadeCoordinatesPipeline(t *testing.T) {
	// The full paper pipeline: synthetic delays -> embedding -> tree.
	r := omtree.NewRand(7)
	hosts := r.UniformDiskN(30, 1)
	m, err := omtree.EuclideanMatrix(hosts, 0, omtree.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	emb, err := omtree.Embed(m, omtree.EmbedConfig{Dim: 2, Landmarks: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	src := emb.Coords[0]
	receivers := make([]omtree.Vec, 0, len(hosts)-1)
	for i := 1; i < len(hosts); i++ {
		receivers = append(receivers, emb.Coords[i])
	}
	res, err := omtree.BuildND(src, receivers, omtree.WithMaxOutDegree(4))
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the tree against the TRUE delays.
	trueDist := func(i, j int) float64 {
		oi, oj := 0, 0
		if i > 0 {
			oi = i
		}
		if j > 0 {
			oj = j
		}
		return m.At(oi, oj)
	}
	trueRadius := res.Tree.Radius(trueDist)
	if trueRadius <= 0 {
		t.Error("no measured radius")
	}
	// With a noise-free Euclidean matrix, the embedded estimate is close to
	// the true delay.
	if math.Abs(trueRadius-res.Radius) > 0.3*trueRadius {
		t.Errorf("embedded radius %v far from true %v", res.Radius, trueRadius)
	}
	errs := omtree.EmbeddingErrors(m, emb)
	if len(errs) == 0 {
		t.Error("no embedding errors returned")
	}
}

func TestFacadeTransitStub(t *testing.T) {
	m, err := omtree.TransitStub(omtree.TransitStubConfig{
		TransitRouters: 4, StubsPerRouter: 2, HostsPerStub: 2,
	}, omtree.NewRand(10))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 16 {
		t.Errorf("hosts = %d", m.N())
	}
	if _, err := omtree.NewDelayMatrix(4); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNewSurface(t *testing.T) {
	r := omtree.NewRand(20)
	pts := r.UniformDiskN(100, 1)

	// Square bisection.
	trSq, repSq, err := omtree.BuildBisectionSquare(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := trSq.Validate(4); err != nil {
		t.Fatal(err)
	}
	dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
	if trSq.Radius(dist) > repSq.PathBound+1e-9 {
		t.Error("square bisection exceeded its bound")
	}

	// Min diameter.
	dres, err := omtree.BuildMinDiameter(pts)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Diameter <= 0 || dres.Diameter > 2*dres.Build.Radius+1e-9 {
		t.Errorf("diameter %v vs radius %v", dres.Diameter, dres.Build.Radius)
	}

	// SVG rendering through the facade.
	res, err := omtree.Build(omtree.Point2{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]omtree.Point2{{}}, pts...)
	var svg strings.Builder
	if err := omtree.RenderSVG(&svg, res.Tree, all, omtree.VizOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg.String(), "<svg") {
		t.Error("no SVG emitted")
	}

	// Overlay via facade.
	ov, err := omtree.NewOverlay(omtree.OverlayConfig{
		Source: omtree.Point2{}, Scale: 1, K: omtree.SuggestOverlayK(100), MaxOutDegree: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, _, err := ov.Join(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ov.Rebuild(); err != nil {
		t.Fatal(err)
	}
	radius, err := ov.Radius()
	if err != nil {
		t.Fatal(err)
	}
	if radius <= 0 {
		t.Error("no radius")
	}
}

func TestFacadeBuildState(t *testing.T) {
	r := omtree.NewRand(9)
	source := omtree.Point2{}
	bs, err := omtree.NewBuildState(source)
	if err != nil {
		t.Fatal(err)
	}
	receivers := r.UniformDiskN(500, 1)
	for i, p := range receivers {
		bs.Add(i+1, p)
	}
	res, full, err := bs.Rebuild()
	if err != nil || !full {
		t.Fatalf("first rebuild: full=%v err=%v", full, err)
	}
	want, err := omtree.Build(source, receivers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius != want.Radius || res.K != want.K {
		t.Fatalf("retained build differs: %+v vs %+v", res, want)
	}
	// Churn a little and rebuild incrementally: still equal to a fresh build.
	bs.Remove(3)
	bs.Add(len(receivers)+1, r.UniformDisk(1))
	res, full, err = bs.Rebuild()
	if err != nil || full {
		t.Fatalf("churn rebuild: full=%v err=%v", full, err)
	}
	if want := len(receivers) + 1; res.Tree.N() != want { // -1 removed, +1 added, +source
		t.Fatalf("tree has %d nodes, want %d", res.Tree.N(), want)
	}
	if err := res.Tree.Validate(res.MaxOutDegree); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMultiGroup(t *testing.T) {
	r := omtree.NewRand(11)
	hosts := r.UniformDiskN(400, 1)
	reg := omtree.NewObserver()
	sub, err := omtree.NewSubstrate(hosts, omtree.WithSubstrateObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	// Two groups with overlapping memberships on one substrate; each build
	// equals the stand-alone Build over the same members.
	var groups []*omtree.GroupTree
	for gi := 0; gi < 2; gi++ {
		g, err := sub.NewGroup(omtree.GroupConfig{
			Source: []float64{0, 0}, MaxOutDegree: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		for h := gi * 100; h < gi*100+250; h++ {
			if err := g.Join(h); err != nil {
				t.Fatal(err)
			}
		}
		groups = append(groups, g)
	}
	for _, g := range groups {
		res, full, err := g.Build()
		if err != nil || !full {
			t.Fatalf("build: full=%v err=%v", full, err)
		}
		members := g.Members()
		recv := make([]omtree.Point2, len(members))
		for i, h := range members {
			recv[i] = sub.Host2(h)
		}
		want, err := omtree.Build(omtree.Point2{}, recv, omtree.WithMaxOutDegree(6))
		if err != nil {
			t.Fatal(err)
		}
		if res.Radius != want.Radius || res.K != want.K {
			t.Fatalf("shared-substrate build differs: %+v vs %+v", res, want)
		}
	}
	if sub.Views() != 1 {
		t.Errorf("views = %d, want 1 (both groups share one source)", sub.Views())
	}

	// Group set of live sessions through the facade.
	gs, err := omtree.NewOverlayGroupSet(nil, omtree.OverlayFaultConfig{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"news", "music"} {
		if _, err := gs.Create(name, omtree.OverlayConfig{Scale: 1, K: 3, MaxOutDegree: 6}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		p := r.UniformDisk(1)
		for _, name := range gs.Names() {
			if _, _, err := gs.Join(name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := gs.MaintenanceAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range gs.Names() {
		if err := gs.Group(name).Audit(); err != nil {
			t.Fatalf("group %s: %v", name, err)
		}
	}
}
