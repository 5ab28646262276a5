package bisect

import (
	"math"
	"slices"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
	"omtree/internal/tree"
)

func dist2(pts []geom.Point2) tree.DistFunc {
	return func(i, j int) float64 { return pts[i].Dist(pts[j]) }
}

func dist3(pts []geom.Point3) tree.DistFunc {
	return func(i, j int) float64 { return pts[i].Dist(pts[j]) }
}

func distD(pts []geom.Vec) tree.DistFunc {
	return func(i, j int) float64 { return pts[i].Dist(pts[j]) }
}

func TestBuildTreeInvalidArgs(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}}
	if _, _, err := BuildTree(pts, 0, 1); err == nil {
		t.Error("accepted out-degree 1")
	}
	if _, _, err := BuildTree(pts, 5, 4); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, _, err := BuildTree(pts, -1, 4); err == nil {
		t.Error("accepted negative source")
	}
}

func TestBuildTreeSingle(t *testing.T) {
	tr, _, err := BuildTree([]geom.Point2{{X: 3, Y: 4}}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 1 {
		t.Errorf("N = %d", tr.N())
	}
}

func TestBuildTreePair(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}}
	tr, rep, err := BuildTree(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Radius(dist2(pts)); math.Abs(got-1) > 1e-12 {
		t.Errorf("radius = %v, want 1", got)
	}
	if rep.LowerBound != 1 {
		t.Errorf("lower bound = %v", rep.LowerBound)
	}
}

func TestBuildTreeDegreesAndValidity(t *testing.T) {
	r := rng.New(1)
	for _, deg := range []int{2, 3, 4, 6} {
		for _, n := range []int{2, 5, 17, 200, 1000} {
			pts := r.UniformDiskN(n, 1)
			tr, rep, err := BuildTree(pts, 0, deg)
			if err != nil {
				t.Fatalf("deg=%d n=%d: %v", deg, n, err)
			}
			capDeg := 4
			if deg < 4 {
				capDeg = 2
			}
			if err := tr.Validate(capDeg); err != nil {
				t.Fatalf("deg=%d n=%d: %v", deg, n, err)
			}
			radius := tr.Radius(dist2(pts))
			if radius > rep.PathBound+1e-9 {
				t.Errorf("deg=%d n=%d: radius %v exceeds path bound %v", deg, n, radius, rep.PathBound)
			}
			if radius < rep.LowerBound-1e-9 {
				t.Errorf("deg=%d n=%d: radius %v below lower bound %v", deg, n, radius, rep.LowerBound)
			}
		}
	}
}

func TestBuildTreeSegmentPreconditions(t *testing.T) {
	// The covering segment must satisfy the factor-5 preconditions:
	// sin(a) > (5/6) a and r > 0.6 R.
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		pts := r.UniformDiskN(100, 1)
		_, rep, err := BuildTree(pts, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		a := rep.Segment.Angle()
		if !(math.Sin(a) > 5.0/6.0*a) {
			t.Errorf("angle %v violates sin(a) > 5a/6", a)
		}
		if !(rep.Segment.RMin > 0.6*rep.Segment.RMax) {
			t.Errorf("r/R = %v <= 0.6", rep.Segment.RMin/rep.Segment.RMax)
		}
	}
}

func TestBuildTreeApproximationQuality(t *testing.T) {
	// Theorem 1: radius <= 5*OPT for degree 4 (9*OPT for degree 2). OPT is
	// at least the max direct distance from the source (rep.LowerBound), so
	// radius/LowerBound <= 5 (resp. 9) must hold a fortiori... only when
	// LowerBound ~ OPT. Check the certificate chain instead: radius <=
	// PathBound, and PathBound <= 5 (resp. 9) * the segment-derived OPT
	// lower bound max(R-q, q-r, r*sin(a)).
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(300)
		pts := r.UniformDiskN(n, 1)
		src := r.Intn(n)

		for _, tc := range []struct {
			deg    int
			factor float64
		}{{4, 5}, {2, 9}} {
			tr, rep, err := BuildTree(pts, src, tc.deg)
			if err != nil {
				t.Fatal(err)
			}
			seg, q := rep.Segment, rep.SourceR
			optLB := math.Max(math.Max(seg.RMax-q, q-seg.RMin), seg.RMin*math.Sin(seg.Angle()))
			if optLB <= 0 {
				continue
			}
			radius := tr.Radius(dist2(pts))
			if radius > tc.factor*optLB+1e-9 {
				t.Errorf("deg=%d n=%d: radius %v > %v * segment lower bound %v",
					tc.deg, n, radius, tc.factor, optLB)
			}
		}
	}
}

func TestBuildTreeDeterministic(t *testing.T) {
	r := rng.New(4)
	pts := r.UniformDiskN(300, 1)
	t1, _, err := BuildTree(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	t2, _, err := BuildTree(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < t1.N(); i++ {
		if t1.Parent(i) != t2.Parent(i) {
			t.Fatal("non-deterministic tree")
		}
	}
}

func TestBuildTreeCoincidentPoints(t *testing.T) {
	pts := make([]geom.Point2, 20)
	for i := range pts {
		pts[i] = geom.Point2{X: 1, Y: 2}
	}
	tr, _, err := BuildTree(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
	if got := tr.Radius(dist2(pts)); got != 0 {
		t.Errorf("radius = %v, want 0", got)
	}
}

func TestBuildTreeNearCoincidentClusters(t *testing.T) {
	// Two tight clusters exercise deep recursion before degeneration.
	var pts []geom.Point2
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Point2{X: 0, Y: float64(i) * 1e-15})
		pts = append(pts, geom.Point2{X: 1, Y: float64(i) * 1e-15})
	}
	tr, _, err := BuildTree(pts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTreeCollinear(t *testing.T) {
	pts := make([]geom.Point2, 50)
	for i := range pts {
		pts[i] = geom.Point2{X: float64(i), Y: 0}
	}
	tr, rep, err := BuildTree(pts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(2); err != nil {
		t.Fatal(err)
	}
	if radius := tr.Radius(dist2(pts)); radius > rep.PathBound+1e-9 {
		t.Errorf("radius %v > bound %v", radius, rep.PathBound)
	}
}

// testShell and testCellD are the 3-D and d-D counterparts of the
// degree-4 test's ring segment: the same radial band and azimuth interval,
// and polar extents of a similar width.
var testShell = geom.ShellCell{RMin: 0.5, RMax: 0.8, ThetaMin: 1.0, ThetaMax: 1.4, UMin: -0.2, UMax: 0.2}

func testCellD(d int) geom.CellD {
	c := geom.CellD{
		RMin: 0.5, RMax: 0.8, ThetaMin: 1.0, ThetaMax: 1.4,
		PhiMin: make([]float64, d-2), PhiMax: make([]float64, d-2),
	}
	for m := range c.PhiMin {
		c.PhiMin[m], c.PhiMax[m] = 1.3, 1.7
	}
	return c
}

// cellSizes are the point counts every in-cell recursion is checked at.
var cellSizes = []int{1, 2, 3, 4, 5, 9, 33, 100, 300}

// draw returns n uniform draws from [lo, hi], or n copies of one draw when
// coincident, so that points drawn coordinate by coordinate all coincide.
func draw(r *rng.Rand, lo, hi float64, n int, coincident bool) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		if i == 0 || !coincident {
			vs[i] = lo + r.Float64()*(hi-lo)
		} else {
			vs[i] = vs[0]
		}
	}
	return vs
}

// inSegment, inShell and inCellD place n points in a cell (see draw) and
// return their cell coordinates and Cartesian distance.
func inSegment(r *rng.Rand, seg geom.RingSegment, n int, coincident bool) ([]geom.Polar, tree.DistFunc) {
	rs, ts := draw(r, seg.RMin, seg.RMax, n, coincident), draw(r, seg.ThetaMin, seg.ThetaMax, n, coincident)
	polars, pts := make([]geom.Polar, n), make([]geom.Point2, n)
	for i := range polars {
		polars[i] = geom.Polar{R: rs[i], Theta: ts[i]}
		pts[i] = polars[i].ToPoint()
	}
	return polars, dist2(pts)
}

func inShell(r *rng.Rand, cell geom.ShellCell, n int, coincident bool) ([]geom.Spherical, tree.DistFunc) {
	rs, ts := draw(r, cell.RMin, cell.RMax, n, coincident), draw(r, cell.ThetaMin, cell.ThetaMax, n, coincident)
	us := draw(r, cell.UMin, cell.UMax, n, coincident)
	sph, pts := make([]geom.Spherical, n), make([]geom.Point3, n)
	for i := range sph {
		sph[i] = geom.Spherical{R: rs[i], Theta: ts[i], U: us[i]}
		pts[i] = sph[i].ToPoint()
	}
	return sph, dist3(pts)
}

func inCellD(r *rng.Rand, cell geom.CellD, n int, coincident bool) ([]geom.Hyperspherical, tree.DistFunc) {
	rs, ts := draw(r, cell.RMin, cell.RMax, n, coincident), draw(r, cell.ThetaMin, cell.ThetaMax, n, coincident)
	hs, pts := make([]geom.Hyperspherical, n), make([]geom.Vec, n)
	for i := range hs {
		hs[i] = geom.Hyperspherical{R: rs[i], Theta: ts[i], Phi: make([]float64, len(cell.PhiMin))}
	}
	for m := range cell.PhiMin {
		for i, v := range draw(r, cell.PhiMin[m], cell.PhiMax[m], n, coincident) {
			hs[i].Phi[m] = v
		}
	}
	for i := range hs {
		pts[i] = hs[i].ToVec()
	}
	return hs, distD(pts)
}

// shellBound is the path bound of a 3-D recursion from a source at radius
// q: the radial term plus perLevel·RMax times the cell's angular width, the
// azimuth width plus the polar-angle width. The degree-8 recursion spends
// 2, the degree-2 relay 8.
func shellBound(c geom.ShellCell, q, perLevel float64) float64 {
	angle := (c.ThetaMax - c.ThetaMin) + (math.Acos(c.UMin) - math.Acos(c.UMax))
	return math.Max(c.RMax-q, q-c.RMin) + perLevel*c.RMax*angle
}

// cellDBound is shellBound for a d-D cell, whose angular width is the sum
// of its per-axis widths. The natural recursion spends 2, the degree-2
// relay 2^d.
func cellDBound(c geom.CellD, q, perLevel float64) float64 {
	angle := c.ThetaMax - c.ThetaMin
	for m := range c.PhiMin {
		angle += c.PhiMax[m] - c.PhiMin[m]
	}
	return math.Max(c.RMax-q, q-c.RMin) + perLevel*c.RMax*angle
}

// checkInCell wires nodes 1..n-1 under source 0 with wire, as the core
// algorithm does inside a grid cell, and checks that the tree spans them,
// keeps out-degree deg and stays within the path bound.
func checkInCell(t *testing.T, n, deg int, dist tree.DistFunc, bound float64, wire func(*tree.Builder, []int32)) {
	t.Helper()
	b, err := tree.NewBuilder(n, 0, deg)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int32, 0, n-1)
	for i := 1; i < n; i++ {
		idx = append(idx, int32(i))
	}
	wire(b, idx)
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if err := tr.Validate(deg); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if radius := tr.Radius(dist); radius > bound+1e-9 {
		t.Errorf("n=%d: radius %v > bound %v", n, radius, bound)
	}
}

// cellName names a subtest after its cell and whether its points coincide.
func cellName(cell string, coincident bool) string {
	if coincident {
		return cell + "/coincident"
	}
	return cell
}

// TestConnect4InCell drives the natural recursion of every dimension over
// one cell: Ctx2.Connect4 against inequality (1), Ctx3.Connect8 and
// CtxD.ConnectFull against their 3-D and d-D analogues. Coincident points
// exercise the fallback for cells too thin to split.
func TestConnect4InCell(t *testing.T) {
	r := rng.New(5)
	for _, coincident := range []bool{false, true} {
		t.Run(cellName("segment", coincident), func(t *testing.T) {
			seg := geom.RingSegment{RMin: 0.5, RMax: 0.8, ThetaMin: 1.0, ThetaMax: 1.4}
			for _, n := range cellSizes {
				polars, dist := inSegment(r, seg, n, coincident)
				checkInCell(t, n, 4, dist, PathBound4(seg, polars[0].R), func(b *tree.Builder, idx []int32) {
					(&Ctx2{B: b, Pts: polars}).Connect4(idx, 0, seg)
				})
			}
		})
		t.Run(cellName("shell", coincident), func(t *testing.T) {
			for _, n := range cellSizes {
				sph, dist := inShell(r, testShell, n, coincident)
				checkInCell(t, n, 8, dist, shellBound(testShell, sph[0].R, 2), func(b *tree.Builder, idx []int32) {
					(&Ctx3{B: b, Pts: sph}).Connect8(idx, 0, testShell)
				})
			}
		})
		t.Run(cellName("cellD", coincident), func(t *testing.T) {
			for d := 2; d <= 5; d++ {
				cell := testCellD(d)
				for _, n := range cellSizes {
					hs, dist := inCellD(r, cell, n, coincident)
					checkInCell(t, n, 1<<d, dist, cellDBound(cell, hs[0].R, 2), func(b *tree.Builder, idx []int32) {
						(&CtxD{B: b, Pts: hs}).ConnectFull(idx, 0, cell)
					})
				}
			}
		})
	}
}

// TestConnect2InCell is TestConnect4InCell for the degree-2 variants, whose
// relays spend more angle per level: inequality (2) in 2-D.
func TestConnect2InCell(t *testing.T) {
	r := rng.New(6)
	for _, coincident := range []bool{false, true} {
		t.Run(cellName("segment", coincident), func(t *testing.T) {
			seg := geom.RingSegment{RMin: 0.9, RMax: 1.0, ThetaMin: 0.2, ThetaMax: 0.5}
			for _, n := range cellSizes {
				polars, dist := inSegment(r, seg, n, coincident)
				checkInCell(t, n, 2, dist, PathBound2(seg, polars[0].R), func(b *tree.Builder, idx []int32) {
					(&Ctx2{B: b, Pts: polars}).Connect2(idx, 0, seg)
				})
			}
		})
		t.Run(cellName("shell", coincident), func(t *testing.T) {
			for _, n := range cellSizes {
				sph, dist := inShell(r, testShell, n, coincident)
				checkInCell(t, n, 2, dist, shellBound(testShell, sph[0].R, 8), func(b *tree.Builder, idx []int32) {
					(&Ctx3{B: b, Pts: sph}).Connect2(idx, 0, testShell)
				})
			}
		})
		t.Run(cellName("cellD", coincident), func(t *testing.T) {
			for d := 2; d <= 5; d++ {
				cell := testCellD(d)
				for _, n := range cellSizes {
					hs, dist := inCellD(r, cell, n, coincident)
					checkInCell(t, n, 2, dist, cellDBound(cell, hs[0].R, float64(int(1)<<d)), func(b *tree.Builder, idx []int32) {
						(&CtxD{B: b, Pts: hs}).Connect2(idx, 0, cell)
					})
				}
			}
		})
	}
}

func TestAttachKary(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		n := 20
		b, err := tree.NewBuilder(n, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		idx := make([]int32, 0, n-1)
		for i := 1; i < n; i++ {
			idx = append(idx, int32(i))
		}
		AttachKary(b, idx, 0, k)
		tr, err := b.Build()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := tr.Validate(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Depth must be logarithmic-ish, not linear, for k >= 2.
		if k >= 2 && tr.Height() > 3+int(math.Ceil(math.Log(float64(n))/math.Log(float64(k)))) {
			t.Errorf("k=%d: height %d too large", k, tr.Height())
		}
	}
}

// TestPickRepTieBreak checks that the representative and helper picks
// break ties by smallest id and remove the pick by swapping it with the
// last element, the slice order AttachKary later wires in.
func TestPickRepTieBreak(t *testing.T) {
	near := func(id, src int32) float64 { return 1 }
	idx := []int32{5, 3, 9}
	if rep, rest := takeRep(idx, 0, near); rep != 3 || !slices.Equal(rest, []int32{5, 9}) {
		t.Errorf("takeRep took %d leaving %v, want 3 leaving [5 9]", rep, rest)
	}
	buckets := [][]int32{{7, 4}, {}, {6, 2, 8}}
	if h := takeHelper(buckets, 0, near); h != 2 || !slices.Equal(buckets[2], []int32{6, 8}) {
		t.Errorf("takeHelper took %d leaving %v, want 2 leaving [6 8]", h, buckets[2])
	}
}
