package bisect

import (
	"math"
	"slices"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// partitionOracle is the textbook one-pass partition that partition2 makes
// branch-free: it branches on the predicate and swaps the element it keeps
// with the boundary. partition2 must make exactly its swaps.
func partitionOracle(idx []int32, pred func(int32) bool) int {
	i := 0
	for j, id := range idx {
		if !pred(id) {
			idx[i], idx[j] = idx[j], idx[i]
			i++
		}
	}
	return i
}

// TestPartition2MatchesBranchyLoop runs partition2 and the oracle over
// random slices of length 0 to 64 with random predicate outcomes, at true
// rates from none to all, and with repeated ids: both must return the same
// boundary and leave the slice in the same order.
func TestPartition2MatchesBranchyLoop(t *testing.T) {
	r := rng.New(20)
	for trial := 0; trial < 5000; trial++ {
		n := r.Intn(65)
		ids := int32(1 + r.Intn(2*n+1)) // fewer ids than slots repeats some
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(r.Intn(int(ids)))
		}
		rate := float64(trial%11) / 10
		outcome := make([]bool, ids)
		for id := range outcome {
			outcome[id] = r.Float64() < rate
		}
		pred := func(id int32) bool { return outcome[id] }

		got, want := slices.Clone(idx), slices.Clone(idx)
		gotI, wantI := partition2(got, pred), partitionOracle(want, pred)
		if gotI != wantI || !slices.Equal(got, want) {
			t.Fatalf("trial %d on %v: partition2 gives %d %v, the branchy loop %d %v",
				trial, idx, gotI, got, wantI, want)
		}
	}
}

// coincidentCell places members at the four corners of a segment two ulps
// wide on each axis: one split separates the corners, and the next segment
// is too thin to split, so AttachKary wires each corner's cluster in the
// slice order the partition left. Member i+1 sits at corner corner[i].
func coincidentCell() (geom.RingSegment, []geom.Polar) {
	r0, t0 := 1.0, 0.75
	r2 := math.Nextafter(math.Nextafter(r0, 2), 2)
	t2 := math.Nextafter(math.Nextafter(t0, 1), 1)
	seg := geom.RingSegment{RMin: r0, RMax: r2, ThetaMin: t0, ThetaMax: t2}
	corners := [4]geom.Polar{{R: r0, Theta: t0}, {R: r0, Theta: t2}, {R: r2, Theta: t0}, {R: r2, Theta: t2}}
	corner := []int{3, 0, 2, 2, 1, 3, 0, 0, 3, 1, 2, 3, 0, 1, 1, 2, 3, 3, 0, 2, 1, 0, 3, 2, 2, 0, 1, 3, 0, 2}
	pts := []geom.Polar{{R: r0, Theta: (t0 + t2) / 2}} // the source
	for _, c := range corner {
		pts = append(pts, corners[c])
	}
	return seg, pts
}

// TestCoincidentClustersWireAsBranchyPartition pins the wiring of a cell of
// coincident clusters, where the slice order the partition leaves decides
// which member AttachKary hangs under which. The expected parents are what
// both variants wire with the branchy partition (partitionOracle); a
// partition that split the same way but ordered either half differently
// fails here.
func TestCoincidentClustersWireAsBranchyPartition(t *testing.T) {
	seg, pts := coincidentCell()
	for _, tc := range []struct {
		name    string
		connect func(*Ctx2, []int32)
		want    []int32
	}{
		{"Connect4", func(c *Ctx2, idx []int32) { c.Connect4(idx, 0, seg) }, wantCoincident4},
		{"Connect2", func(c *Ctx2, idx []int32) { c.Connect2(idx, 0, seg) }, wantCoincident2},
	} {
		sink := newRaceSink(len(pts))
		idx := make([]int32, 0, len(pts)-1)
		for i := 1; i < len(pts); i++ {
			idx = append(idx, int32(i))
		}
		tc.connect(&Ctx2{B: sink, Pts: pts}, idx)
		if !slices.Equal(sink.parents, tc.want) {
			t.Errorf("%s: parents\n%v\nwant\n%v", tc.name, sink.parents, tc.want)
		}
	}
}

var (
	wantCoincident4 = []int32{-1, 0, 0, 0, 3, 0, 23, 2, 2, 1, 5, 3, 1, 2, 5, 5, 3, 1, 23, 29, 3, 5, 29, 1, 4, 4, 29, 10, 23, 2, 4}
	wantCoincident2 = []int32{-1, 5, 0, 5, 3, 0, 9, 2, 29, 1, 2, 4, 23, 29, 27, 27, 3, 23, 17, 26, 4, 10, 26, 1, 16, 16, 7, 10, 9, 7, 20}
)
