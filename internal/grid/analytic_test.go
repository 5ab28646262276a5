package grid

import (
	"fmt"
	"math"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// naiveFoldFull is the reference for the bit-fold machinery: fullness of a
// bitmap at every fold level, computed bit by bit.
func naiveFoldFull(bits []bool) int {
	res := 0
	for 1<<uint(res) < len(bits) {
		res++
	}
	for j := res; ; j-- {
		full := true
		for _, b := range bits {
			if !b {
				full = false
				break
			}
		}
		if full {
			return j
		}
		if j == 0 {
			return -1
		}
		half := make([]bool, len(bits)/2)
		for t := range half {
			half[t] = bits[2*t] || bits[2*t+1]
		}
		bits = half
	}
}

func TestMaxFullResMatchesNaive(t *testing.T) {
	r := rng.New(42)
	for res := 0; res <= 10; res++ {
		n := 1 << uint(res)
		for trial := 0; trial < 50; trial++ {
			// Mix densities so some trials are full at high resolutions and
			// others empty everywhere.
			p := float64(trial%10+1) / 10 * 1.3
			bits := make([]bool, n)
			words := make([]uint64, (n+63)/64)
			for i := range bits {
				if r.Float64() < p {
					bits[i] = true
					words[i>>6] |= 1 << uint(i&63)
				}
			}
			want := naiveFoldFull(bits)
			if got := maxFullRes(words, res); got != want {
				t.Fatalf("res=%d trial=%d: maxFullRes=%d want %d", res, trial, got, want)
			}
		}
	}
}

func TestCompactPairsOr(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		x := uint64(r.Intn(1<<31))<<33 | uint64(r.Intn(1<<31))<<2 | uint64(trial&3)
		got := compactPairsOr(x)
		var want uint64
		for tt := 0; tt < 32; tt++ {
			if x&(3<<uint(2*tt)) != 0 {
				want |= 1 << uint(tt)
			}
		}
		if got != want {
			t.Fatalf("compactPairsOr(%#x) = %#x, want %#x", x, got, want)
		}
	}
}

func TestEstimateK(t *testing.T) {
	if got := EstimateK(0, 10); got != 1 {
		t.Errorf("EstimateK(0) = %d", got)
	}
	prev := 1
	for _, n := range []int{10, 100, 1000, 10000, 100000} {
		k := EstimateK(n, 30)
		if k < prev {
			t.Errorf("EstimateK not monotone: n=%d k=%d prev=%d", n, k, prev)
		}
		prev = k
	}
	// The estimate should sit near the empirical ~0.86*log2(n) of Figure 6.
	if k := EstimateK(100000, 30); k < 10 || k > 15 {
		t.Errorf("EstimateK(1e5) = %d, want ~12", k)
	}
	// The ceiling binds.
	if k := EstimateK(1<<20, 5); k != 5 {
		t.Errorf("EstimateK capped = %d, want 5", k)
	}
}

// pointSet is a sample in one dimension's coordinates plus its scale.
type pointSet[C any] struct {
	pts   []C
	scale float64
}

// polarSets enumerates adversarial and typical 2-D point sets, as polar
// coordinates with the scale the core build would derive (max radius).
func polarSets() map[string]pointSet[geom.Polar] {
	sets := make(map[string]pointSet[geom.Polar])
	add := func(name string, pts []geom.Polar) {
		var scale float64
		for _, p := range pts {
			if p.R > scale {
				scale = p.R
			}
		}
		sets[name] = pointSet[geom.Polar]{pts, scale}
	}

	sizes := []int{0, 1, 2, 3, 5, 10, 50, 100, 500, 2000, 5000, 20000}
	if !testing.Short() {
		sizes = append(sizes, 100000)
	}
	for _, n := range sizes {
		for _, radius := range []float64{1, 250} {
			r := rng.New(uint64(n))
			pts := make([]geom.Polar, n)
			for i := range pts {
				pts[i] = r.UniformDisk(radius).ToPolar()
			}
			add(fmt.Sprintf("uniform-%d-r%v", n, radius), pts)
		}
	}

	// A dense off-center blob plus a wide sparse one: far from the uniform
	// density the estimate assumes.
	clustered := rng.New(31).ClusteredDiskN(2000, 1, []rng.Cluster{
		{Center: geom.Point2{X: 0.1, Y: 0}, Sigma: 0.01, Weight: 0.8},
		{Center: geom.Point2{X: -0.5, Y: 0.5}, Sigma: 0.3, Weight: 0.2},
	})
	cpts := make([]geom.Polar, len(clustered))
	for i, p := range clustered {
		cpts[i] = p.ToPolar()
	}
	add("clustered", cpts)

	// Exact circle radii: boundary guard paths of RingOf.
	g := PolarGrid{K: 8, Scale: 1}
	var boundary []geom.Polar
	for i := 0; i <= 8; i++ {
		for j := 0; j < 32; j++ {
			boundary = append(boundary, geom.Polar{R: g.CircleRadius(i), Theta: geom.TwoPi * float64(j) / 32})
		}
	}
	add("circle-boundaries", boundary)

	// One angular half empty: forces shallow k via angular occupancy.
	r := rng.New(99)
	half := make([]geom.Polar, 500)
	for i := range half {
		p := r.UniformDisk(1).ToPolar()
		p.Theta = math.Mod(p.Theta, math.Pi)
		half[i] = p
	}
	add("half-plane", half)

	// Clustered at the center: deep radial depths, sparse outer rings.
	center := make([]geom.Polar, 300)
	rc := rng.New(5)
	for i := range center {
		center[i] = geom.Polar{R: 0.01 * rc.Float64(), Theta: geom.TwoPi * rc.Float64()}
	}
	center = append(center, geom.Polar{R: 1, Theta: 0})
	add("center-cluster", center)

	// Duplicates and zeros.
	add("duplicates", []geom.Polar{{R: 0.5, Theta: 1}, {R: 0.5, Theta: 1}, {R: 0, Theta: 0}, {R: 1, Theta: 5}})

	// Points beyond the scale parameter are exercised separately below.
	return sets
}

// designedOccupancy places exactly one point per interior cell of a depth-k
// grid — feasibility far above the uniform estimate, forcing the analytic
// search's escalation pass.
func designedOccupancy(k int) []geom.Polar {
	g := PolarGrid{K: k, Scale: 1}
	var pts []geom.Polar
	for ring := 1; ring < k; ring++ {
		for j := 0; j < CellsInRing(ring); j++ {
			rMid := (g.CircleRadius(ring-1) + g.CircleRadius(ring)) / 2
			theta := geom.TwoPi * (float64(j) + 0.5) / float64(CellsInRing(ring))
			pts = append(pts, geom.Polar{R: rMid, Theta: theta})
		}
	}
	pts = append(pts, geom.Polar{R: 1, Theta: 0}) // pin the scale
	return pts
}

func TestMaxFeasibleKAnalyticMatchesTrial2D(t *testing.T) {
	for name, s := range polarSets() {
		for _, kMax := range []int{1, 2, 3, 5, 9, 14, 20} {
			want := MaxFeasibleK(s.pts, s.scale, kMax)
			got := MaxFeasibleKAnalytic(s.pts, s.scale, kMax)
			if got != want {
				t.Errorf("%s kMax=%d: analytic %d, trial %d", name, kMax, got, want)
			}
		}
		// The production ceiling.
		kMax := DefaultKMax(len(s.pts))
		if got, want := MaxFeasibleKAnalytic(s.pts, s.scale, kMax), MaxFeasibleK(s.pts, s.scale, kMax); got != want {
			t.Errorf("%s kMax=default(%d): analytic %d, trial %d", name, kMax, got, want)
		}
	}
}

func TestMaxFeasibleKAnalyticEscalates(t *testing.T) {
	pts := designedOccupancy(10)
	if est := analyticCap(len(pts), 12); est >= 10 {
		t.Fatalf("cap %d does not force escalation; tighten the construction", est)
	}
	want := MaxFeasibleK(pts, 1, 12)
	got := MaxFeasibleKAnalytic(pts, 1, 12)
	if got != want {
		t.Fatalf("escalation: analytic %d, trial %d", got, want)
	}
	if want < 10 {
		t.Fatalf("designed set only reached k=%d; escalation untested", want)
	}
}

// ballSets3 returns uniform 3-D ball samples as spherical coordinates,
// with the scale the core build would derive.
func ballSets3() map[int]pointSet[geom.Spherical] {
	sizes := []int{1, 5, 10, 50, 200, 1000, 3000, 10000}
	if !testing.Short() {
		sizes = append(sizes, 30000)
	}
	sets := make(map[int]pointSet[geom.Spherical])
	for _, n := range sizes {
		r := rng.New(uint64(300 + n))
		s := pointSet[geom.Spherical]{pts: make([]geom.Spherical, n)}
		for i := range s.pts {
			s.pts[i] = r.UniformBall3(1).SphericalAround(geom.Point3{})
			s.scale = math.Max(s.scale, s.pts[i].R)
		}
		sets[n] = s
	}
	return sets
}

// ballSetsD returns uniform d-ball samples for d = 2..6 as hyperspherical
// coordinates, keyed "d=.. n=..".
func ballSetsD() map[string]pointSet[geom.Hyperspherical] {
	sets := make(map[string]pointSet[geom.Hyperspherical])
	for _, d := range []int{2, 3, 4, 5, 6} {
		for _, n := range []int{1, 20, 30, 500, 800, 5000} {
			r := rng.New(uint64(100*d + n))
			s := pointSet[geom.Hyperspherical]{pts: make([]geom.Hyperspherical, n)}
			for i := range s.pts {
				s.pts[i] = r.UniformBallD(d, 3).ToHyperspherical()
				s.scale = math.Max(s.scale, s.pts[i].R)
			}
			sets[fmt.Sprintf("d=%d n=%d", d, n)] = s
		}
	}
	return sets
}

func TestMaxFeasibleK3AnalyticMatchesTrial(t *testing.T) {
	for n, s := range ballSets3() {
		for _, kMax := range []int{1, 3, 4, 8, 20, DefaultKMax(n)} {
			want := MaxFeasibleK3(s.pts, s.scale, kMax)
			got := MaxFeasibleK3Analytic(s.pts, s.scale, kMax)
			if got != want {
				t.Errorf("n=%d kMax=%d: analytic %d, trial %d", n, kMax, got, want)
			}
		}
	}
}

func TestMaxFeasibleKDAnalyticMatchesTrial(t *testing.T) {
	for name, s := range ballSetsD() {
		d := len(s.pts[0].Phi) + 2
		for _, kMax := range []int{1, 3, 4, DefaultKMax(len(s.pts))} {
			want, errW := MaxFeasibleKD(d, s.pts, s.scale, kMax)
			got, errG := MaxFeasibleKDAnalytic(d, s.pts, s.scale, kMax)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("%s kMax=%d: error mismatch %v vs %v", name, kMax, errW, errG)
			}
			if errW != nil {
				continue
			}
			if got.K != want.K {
				t.Errorf("%s kMax=%d: analytic K=%d, trial K=%d", name, kMax, got.K, want.K)
			}
			// The shared-levels grid must classify points identically.
			for _, h := range s.pts {
				if got.CellOf(h) != want.CellOf(h) {
					t.Fatalf("%s: CellOf mismatch on shared-levels grid", name)
				}
			}
		}
	}
}

// TestForcedDepthMatchesOracle checks the forced-depth rule the builds
// apply: depth k is feasible exactly when the analytic search capped at k
// returns k. Every depth from 1 to one past the default ceiling is compared
// with the occupancy oracle, in every dimension and over slot subsets.
func TestForcedDepthMatchesOracle(t *testing.T) {
	forced := func(name string, n int, capped func(k int) int, occupied func(k int) bool) {
		t.Helper()
		for k := 1; k <= DefaultKMax(n)+1; k++ {
			if got, want := capped(k) == k, occupied(k); got != want {
				t.Errorf("%s k=%d: search capped at k accepts it: %v, oracle: %v", name, k, got, want)
			}
		}
	}
	for name, s := range polarSets() {
		forced(name, len(s.pts),
			func(k int) int { return MaxFeasibleKAnalytic(s.pts, s.scale, k) },
			func(k int) bool { return PolarGrid{K: k, Scale: s.scale}.InteriorOccupied(s.pts) })
	}
	for n, s := range ballSets3() {
		forced(fmt.Sprintf("3-D n=%d", n), n,
			func(k int) int { return MaxFeasibleK3Analytic(s.pts, s.scale, k) },
			func(k int) bool { return SphereGrid3{K: k, Scale: s.scale}.InteriorOccupied(s.pts) })
	}
	for name, s := range ballSetsD() {
		d := len(s.pts[0].Phi) + 2
		forced(name, len(s.pts),
			func(k int) int {
				g, err := MaxFeasibleKDAnalytic(d, s.pts, s.scale, k)
				if err != nil {
					t.Fatal(err)
				}
				return g.K
			},
			func(k int) bool {
				g, err := NewGridD(d, k, s.scale)
				if err != nil {
					t.Fatal(err)
				}
				return g.InteriorOccupied(s.pts)
			})
	}
	for _, keep := range []float64{0.1, 0.5, 1} {
		pts, slots, _, scale := subsetFixture(uint64(keep*100), 3000, keep)
		forced(fmt.Sprintf("slots keep=%v", keep), len(slots),
			func(k int) int { return MaxFeasibleKAnalyticSlots(pts, slots, scale, k) },
			func(k int) bool { return PolarGrid{K: k, Scale: scale}.InteriorOccupiedSlots(pts, slots) })
	}
}

func TestMaxFeasibleKDAnalyticErrors(t *testing.T) {
	if _, err := MaxFeasibleKDAnalytic(1, nil, 1, 5); err == nil {
		t.Error("dimension 1 accepted")
	}
	if _, err := MaxFeasibleKDAnalytic(3, nil, 1, 40); err == nil {
		t.Error("kMax 40 accepted (trial loop would fail to materialize)")
	}
}

func TestAnalyticOutOfDiskPoints(t *testing.T) {
	// Points beyond the scale parameter clamp into the outer ring in both
	// searches.
	pts := []geom.Polar{{R: 2, Theta: 0}, {R: 3, Theta: 3}, {R: 0.1, Theta: 1}}
	for _, kMax := range []int{1, 3, 6} {
		if got, want := MaxFeasibleKAnalytic(pts, 1, kMax), MaxFeasibleK(pts, 1, kMax); got != want {
			t.Errorf("kMax=%d: analytic %d, trial %d", kMax, got, want)
		}
	}
}
