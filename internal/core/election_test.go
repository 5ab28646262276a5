package core

import (
	"math"
	"slices"
	"testing"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/rng"
)

// groupByCell is the serial counting sort the builds used before bucketing
// and election were fused, kept as the oracle for bucketCells's layout.
func groupByCell(cellOf []int32, numCells int) cellGroups {
	start := make([]int32, numCells+1)
	for _, c := range cellOf {
		start[c+1]++
	}
	for c := 0; c < numCells; c++ {
		start[c+1] += start[c]
	}
	order := make([]int32, len(cellOf))
	fill := append([]int32(nil), start[:numCells]...)
	for i, c := range cellOf {
		order[fill[c]] = int32(i + 1) // receiver i is node i+1
		fill[c]++
	}
	return cellGroups{start: start, order: order}
}

// chooseReps is the former per-cell representative scan, kept as the
// oracle for electReps: the member closest to the center of the cell's
// inner arc (§III-B), ties broken by smallest node id; -1 for empty cells.
func chooseReps(g cellGroups, conn connector, numCells int) []int32 {
	reps := make([]int32, numCells)
	for c := 0; c < numCells; c++ {
		members := g.order[g.start[c]:g.start[c+1]]
		if len(members) == 0 {
			reps[c] = -1
			continue
		}
		best := members[0]
		bestScore := conn.repScore(c, best)
		for _, id := range members[1:] {
			s := conn.repScore(c, id)
			if s < bestScore || (s == bestScore && id < best) {
				best, bestScore = id, s
			}
		}
		reps[c] = best
	}
	return reps
}

// electionWorkers are the worker counts the fused election is checked at.
var electionWorkers = []int{1, 2, 3, 8}

// checkElection runs the oracle pipeline (classify, serial counting sort,
// per-cell scan) and the fused one at every worker count, and requires the
// same grouping and the same representatives.
func checkElection(t *testing.T, name string, n, numCells int, cellOf func(i int) int32,
	bucket func(workers int) (cellGroups, []cellTally), conn connector) {
	t.Helper()
	cells := make([]int32, n)
	for i := range cells {
		cells[i] = cellOf(i)
	}
	want := groupByCell(cells, numCells)
	wantReps := chooseReps(want, conn, numCells)
	wantReps[0] = -1
	for _, w := range electionWorkers {
		got, tallies := bucket(w)
		if !slices.Equal(got.start, want.start) || !slices.Equal(got.order, want.order) {
			t.Fatalf("%s workers=%d: grouping differs from the serial counting sort", name, w)
		}
		if reps := electReps(tallies); !slices.Equal(reps, wantReps) {
			for c := range reps {
				if reps[c] != wantReps[c] {
					t.Fatalf("%s workers=%d: cell %d elects %d, the per-cell scan %d", name, w, c, reps[c], wantReps[c])
				}
			}
		}
	}
}

// withDuplicates repeats every seventh point three more times at the end,
// so cells hold members with identical scores.
func withDuplicates[P any](pts []P) []P {
	out := append([]P(nil), pts...)
	for i := 0; i < len(pts); i += 7 {
		out = append(out, pts[i], pts[i], pts[i])
	}
	return out
}

func TestElectionMatchesPerCellScan2D(t *testing.T) {
	r := rng.New(41)
	clusters := []rng.Cluster{
		{Center: geom.Point2{X: 0.4, Y: 0.1}, Sigma: 0.05, Weight: 4},
		{Center: geom.Point2{X: -0.3, Y: -0.5}, Sigma: 0.2, Weight: 1},
	}
	for _, tc := range []struct {
		name string
		pts  []geom.Point2
	}{
		{"uniform", withDuplicates(r.UniformDiskN(6000, 1))},
		{"clustered", withDuplicates(r.ClusteredDiskN(6000, 1, clusters))},
	} {
		polars := make([]geom.Polar, len(tc.pts)+1)
		var scale float64
		for i, p := range tc.pts {
			polars[i+1] = p.ToPolar()
			scale = math.Max(scale, polars[i+1].R)
		}
		for _, k := range []int{3, 6, 9} {
			g := grid.PolarGrid{K: k, Scale: scale}
			conn := &conn2{ctx: &bisect.Ctx2{Pts: polars}, g: g}
			checkElection(t, tc.name, len(tc.pts), g.NumCells(),
				func(i int) int32 { return int32(g.CellOf(polars[i+1])) },
				func(w int) (cellGroups, []cellTally) {
					return bucketCells(w, g.NumCells(), nil, polars, g, classify2)
				}, conn)
		}
	}
}

func TestElectionMatchesPerCellScan3D(t *testing.T) {
	pts := withDuplicates(rng.New(43).UniformBall3N(4000, 1))
	sph := make([]geom.Spherical, len(pts)+1)
	sph[0] = geom.Spherical{U: 1}
	var scale float64
	for i, p := range pts {
		sph[i+1] = p.ToSpherical()
		scale = math.Max(scale, sph[i+1].R)
	}
	for _, k := range []int{4, 8} {
		g := grid.SphereGrid3{K: k, Scale: scale}
		conn := &conn3{ctx: &bisect.Ctx3{Pts: sph}, g: newGrid3(g)}
		checkElection(t, "3-D", len(pts), g.NumCells(),
			func(i int) int32 { return int32(g.CellOf(sph[i+1])) },
			func(w int) (cellGroups, []cellTally) {
				return bucketCells(w, g.NumCells(), nil, sph, conn.g, classify3)
			}, conn)
	}
}

func TestElectionMatchesPerCellScanD(t *testing.T) {
	for _, d := range []int{2, 4, 5} {
		pts := withDuplicates(rng.New(uint64(47+d)).UniformBallDN(2000, d, 1))
		hs := make([]geom.Hyperspherical, len(pts)+1)
		hs[0] = geom.Hyperspherical{Phi: make([]float64, d-2)}
		var scale float64
		for i, p := range pts {
			hs[i+1] = p.ToHyperspherical()
			scale = math.Max(scale, hs[i+1].R)
		}
		g, err := grid.NewGridD(d, 6, scale)
		if err != nil {
			t.Fatal(err)
		}
		conn := &connD{ctx: &bisect.CtxD{Pts: hs}, g: g}
		checkElection(t, "d-D", len(pts), g.NumCells(),
			func(i int) int32 { return int32(g.CellOf(hs[i+1])) },
			func(w int) (cellGroups, []cellTally) {
				return bucketCells(w, g.NumCells(), nil, hs, g, classifyD)
			}, conn)
	}
}

// TestRepBeforeOrderIndependent checks the election order is total even
// with NaN and infinite scores: shard-wise minima merged in any split give
// the minimum of one sequential scan.
func TestRepBeforeOrderIndependent(t *testing.T) {
	r := rng.New(53)
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 1, 2.5}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(12)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = values[r.Intn(len(values))]
		}
		seq := func(lo, hi int) int32 {
			best := int32(lo + 1)
			for i := lo + 1; i < hi; i++ {
				if repBefore(scores[i], int32(i+1), scores[best-1], best) {
					best = int32(i + 1)
				}
			}
			return best
		}
		want := seq(0, n)
		for i := range scores {
			if id := int32(i + 1); id != want && repBefore(scores[i], id, scores[want-1], want) {
				t.Fatalf("scores %v: %d beats the elected %d", scores, id, want)
			}
		}
		split := r.Intn(n + 1)
		if split == 0 || split == n {
			continue
		}
		a, b := seq(0, split), seq(split, n)
		merged := a
		if repBefore(scores[b-1], b, scores[a-1], a) {
			merged = b
		}
		if merged != want {
			t.Fatalf("scores %v split at %d: merged %d, sequential %d", scores, split, merged, want)
		}
	}
}
