package grid

import (
	"fmt"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// subsetFixture builds a shared polar array (slot 0 reserved for a source,
// as the substrate lays it out) plus a slot list selecting a pseudo-random
// subset, and the dense gather of that subset.
func subsetFixture(seed uint64, n int, keep float64) (pts []geom.Polar, slots []int32, dense []geom.Polar, scale float64) {
	r := rng.New(seed)
	pts = make([]geom.Polar, n+1)
	for i := 1; i <= n; i++ {
		pts[i] = r.UniformDisk(1).ToPolar()
	}
	for i := 1; i <= n; i++ {
		if r.Float64() < keep {
			slots = append(slots, int32(i))
			dense = append(dense, pts[i])
			if pts[i].R > scale {
				scale = pts[i].R
			}
		}
	}
	return pts, slots, dense, scale
}

// TestSubsetMatchesDense locks the contract of the slot-subset variants:
// byte-for-byte the dense functions' answers over the gathered subset, for
// every grid depth and both k searches.
func TestSubsetMatchesDense(t *testing.T) {
	for _, tc := range []struct {
		n    int
		keep float64
	}{
		{50, 1.0}, {500, 0.5}, {3000, 0.2}, {3000, 1.0}, {40, 0.1},
	} {
		t.Run(fmt.Sprintf("n%d_keep%v", tc.n, tc.keep), func(t *testing.T) {
			pts, slots, dense, scale := subsetFixture(uint64(tc.n)*7+uint64(tc.keep*100), tc.n, tc.keep)
			if scale == 0 {
				t.Skip("empty subset")
			}
			kMax := DefaultKMax(len(slots))
			for k := 1; k <= kMax; k++ {
				g := PolarGrid{K: k, Scale: scale}
				if got, want := g.InteriorOccupiedSlots(pts, slots), g.InteriorOccupied(dense); got != want {
					t.Fatalf("InteriorOccupiedSlots k=%d: got %v, want %v", k, got, want)
				}
			}
			if got, want := MaxFeasibleKSlots(pts, slots, scale, kMax), MaxFeasibleK(dense, scale, kMax); got != want {
				t.Fatalf("MaxFeasibleKSlots: got %d, want %d", got, want)
			}
			if got, want := MaxFeasibleKAnalyticSlots(pts, slots, scale, kMax, 1), MaxFeasibleKAnalytic(dense, scale, kMax); got != want {
				t.Fatalf("MaxFeasibleKAnalyticSlots: got %d, want %d", got, want)
			}
			// The two subset searches must also agree with each other at any
			// ceiling, including ceilings below the feasible depth.
			for _, cap := range []int{1, 2, kMax / 2, kMax, kMax + 3} {
				if cap < 1 {
					continue
				}
				if got, want := MaxFeasibleKAnalyticSlots(pts, slots, scale, cap, 1), MaxFeasibleKSlots(pts, slots, scale, cap); got != want {
					t.Fatalf("analytic vs trial at kMax=%d: got %d, want %d", cap, got, want)
				}
			}
		})
	}
}

// TestSubsetEmptyAndSingle covers the degenerate subset shapes the group
// layer can produce: no members, and one member.
func TestSubsetEmptyAndSingle(t *testing.T) {
	pts := []geom.Polar{{}, {R: 0.5, Theta: 1}}
	g := PolarGrid{K: 1, Scale: 0.5}
	if !g.InteriorOccupiedSlots(pts, nil) {
		t.Error("k=1 grid must be feasible for the empty subset")
	}
	if got := MaxFeasibleKSlots(pts, nil, 0.5, 5); got != 1 {
		t.Errorf("empty subset: trial k = %d, want 1", got)
	}
	if got := MaxFeasibleKAnalyticSlots(pts, nil, 0.5, 5, 1); got != 1 {
		t.Errorf("empty subset: analytic k = %d, want 1", got)
	}
	one := []int32{1}
	if got := MaxFeasibleKAnalyticSlots(pts, one, 0.5, 8, 1); got != MaxFeasibleKSlots(pts, one, 0.5, 8) {
		t.Errorf("single subset: analytic %d != trial", got)
	}
}
