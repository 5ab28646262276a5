package knn

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// bruteNearest is the reference implementation.
func bruteNearest(pts []geom.Point2, active []bool, q geom.Point2, accept func(int) bool) int {
	best, bestD2 := -1, math.Inf(1)
	for i, p := range pts {
		if !active[i] || (accept != nil && !accept(i)) {
			continue
		}
		if d2 := p.Dist2(q); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("accepted empty point set")
	}
}

func TestNearestMatchesBrute(t *testing.T) {
	r := rng.New(1)
	pts := r.UniformDiskN(500, 1)
	tree, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, len(pts))
	// Activate a random half.
	for i := range pts {
		if r.Float64() < 0.5 {
			tree.Activate(i)
			active[i] = true
		}
	}
	for trial := 0; trial < 500; trial++ {
		q := r.UniformDisk(1.2)
		got := tree.Nearest(q, nil)
		want := bruteNearest(pts, active, q, nil)
		if got != want {
			gd, wd := math.Inf(1), math.Inf(1)
			if got >= 0 {
				gd = pts[got].Dist(q)
			}
			if want >= 0 {
				wd = pts[want].Dist(q)
			}
			if math.Abs(gd-wd) > 1e-12 { // distinct points at identical distance are fine
				t.Fatalf("Nearest(%v) = %d (%v), want %d (%v)", q, got, gd, want, wd)
			}
		}
	}
}

func TestNearestWithAcceptFilter(t *testing.T) {
	r := rng.New(2)
	pts := r.UniformDiskN(300, 1)
	tree, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	active := make([]bool, len(pts))
	for i := range pts {
		tree.Activate(i)
		active[i] = true
	}
	evenOnly := func(id int) bool { return id%2 == 0 }
	for trial := 0; trial < 200; trial++ {
		q := r.UniformDisk(1)
		got := tree.Nearest(q, evenOnly)
		want := bruteNearest(pts, active, q, evenOnly)
		if got != want && (got < 0 || want < 0 ||
			math.Abs(pts[got].Dist(q)-pts[want].Dist(q)) > 1e-12) {
			t.Fatalf("filtered Nearest mismatch: %d vs %d", got, want)
		}
		if got%2 != 0 {
			t.Fatalf("filter violated: %d", got)
		}
	}
}

func TestActivateDeactivate(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}}
	tree, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point2{X: 0.1, Y: 0}
	if got := tree.Nearest(q, nil); got != -1 {
		t.Fatalf("empty tree returned %d", got)
	}
	tree.Activate(2)
	if got := tree.Nearest(q, nil); got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
	tree.Activate(0)
	if got := tree.Nearest(q, nil); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
	// Idempotency.
	tree.Activate(2)
	if got := tree.Nearest(q, nil); got != 0 {
		t.Fatal("idempotent ops broke state")
	}
}

func TestKNearestMatchesBrute(t *testing.T) {
	r := rng.New(3)
	pts := r.UniformDiskN(400, 1)
	tree, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		tree.Activate(i)
	}
	for trial := 0; trial < 100; trial++ {
		q := r.UniformDisk(1)
		k := 1 + r.Intn(12)
		got := tree.KNearest(q, k, nil)
		if len(got) != k {
			t.Fatalf("KNearest returned %d, want %d", len(got), k)
		}
		// Reference: sort all by distance.
		ref := make([]int, len(pts))
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool {
			da, db := pts[ref[a]].Dist2(q), pts[ref[b]].Dist2(q)
			if da != db {
				return da < db
			}
			return ref[a] < ref[b]
		})
		for i := 0; i < k; i++ {
			if math.Abs(pts[got[i]].Dist2(q)-pts[ref[i]].Dist2(q)) > 1e-12 {
				t.Fatalf("k=%d position %d: got dist %v, want %v",
					k, i, pts[got[i]].Dist2(q), pts[ref[i]].Dist2(q))
			}
		}
		// Sorted output.
		for i := 1; i < len(got); i++ {
			if pts[got[i]].Dist2(q) < pts[got[i-1]].Dist2(q)-1e-15 {
				t.Fatal("KNearest output not sorted")
			}
		}
	}
}

func TestKNearestEdgeCases(t *testing.T) {
	pts := []geom.Point2{{X: 0, Y: 0}, {X: 1, Y: 1}}
	tree, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.KNearest(geom.Point2{}, 0, nil); got != nil {
		t.Error("k=0 should return nil")
	}
	tree.Activate(0)
	got := tree.KNearest(geom.Point2{}, 5, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("got %v", got)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point2, 20)
	for i := range pts {
		pts[i] = geom.Point2{X: 0.5, Y: 0.5}
	}
	tree, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		tree.Activate(i)
	}
	if got := tree.Nearest(geom.Point2{}, nil); got < 0 {
		t.Fatal("no nearest among duplicates")
	}
	got := tree.KNearest(geom.Point2{}, 20, nil)
	if len(got) != 20 {
		t.Fatalf("got %d duplicates", len(got))
	}
}

func TestNearestQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8, qx, qy int8) bool {
		r := rng.New(seed)
		n := int(nRaw)%100 + 1
		pts := r.UniformDiskN(n, 1)
		tree, err := New(pts)
		if err != nil {
			return false
		}
		active := make([]bool, n)
		for i := 0; i < n; i++ {
			if r.Float64() < 0.6 {
				tree.Activate(i)
				active[i] = true
			}
		}
		q := geom.Point2{X: float64(qx) / 64, Y: float64(qy) / 64}
		got := tree.Nearest(q, nil)
		want := bruteNearest(pts, active, q, nil)
		if got == want {
			return true
		}
		if got < 0 || want < 0 {
			return false
		}
		return math.Abs(pts[got].Dist2(q)-pts[want].Dist2(q)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
