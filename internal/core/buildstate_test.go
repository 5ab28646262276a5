package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/rng"
	"omtree/internal/snapshot"
)

// stateHarness drives a BuildState and a mirror membership map in lockstep,
// comparing every rebuild against a from-scratch Build2 over the same
// membership.
type stateHarness struct {
	t      *testing.T
	bs     *BuildState
	source geom.Point2
	opts   []Option
	pos    map[int]geom.Point2
	slots  []int // present slots, ascending
	next   int
	fulls  int
	incs   int
}

func newStateHarness(t *testing.T, source geom.Point2, opts ...Option) *stateHarness {
	bs, err := NewBuildState(source, opts...)
	if err != nil {
		t.Fatalf("NewBuildState: %v", err)
	}
	return &stateHarness{t: t, bs: bs, source: source, opts: opts, pos: map[int]geom.Point2{}, next: 1}
}

func (h *stateHarness) add(p geom.Point2) {
	slot := h.next
	h.next++
	h.bs.Add(slot, p)
	h.pos[slot] = p
	h.slots = append(h.slots, slot)
}

// remove drops the i-th present slot (by ascending order).
func (h *stateHarness) remove(i int) {
	slot := h.slots[i]
	h.bs.Remove(slot)
	delete(h.pos, slot)
	h.slots = append(h.slots[:i], h.slots[i+1:]...)
}

// check rebuilds incrementally and from scratch and requires identical
// outcomes: same error, or same k, byte-identical tree, and same metrics.
func (h *stateHarness) check() {
	h.t.Helper()
	receivers := make([]geom.Point2, len(h.slots))
	for i, slot := range h.slots {
		receivers[i] = h.pos[slot]
	}
	want, wantErr := Build2(h.source, receivers, h.opts...)
	got, full, gotErr := h.bs.Rebuild()
	if (wantErr == nil) != (gotErr == nil) {
		h.t.Fatalf("n=%d: error mismatch: scratch %v, state %v", len(h.slots), wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			h.t.Fatalf("error text mismatch: %q vs %q", wantErr, gotErr)
		}
		return
	}
	if full {
		h.fulls++
	} else {
		h.incs++
	}
	if got.K != want.K {
		h.t.Fatalf("n=%d: k mismatch: state %d, scratch %d", len(h.slots), got.K, want.K)
	}
	if !bytes.Equal(treeBytes(h.t, got.Tree), treeBytes(h.t, want.Tree)) {
		h.t.Fatalf("n=%d full=%v k=%d: tree differs from scratch build", len(h.slots), full, got.K)
	}
	if got.Radius != want.Radius || got.CoreDelay != want.CoreDelay ||
		got.Bound != want.Bound || got.Scale != want.Scale {
		h.t.Fatalf("n=%d: metrics differ: %+v vs %+v", len(h.slots), got, want)
	}
}

func TestBuildStateMatchesFromScratch(t *testing.T) {
	for _, deg := range []int{2, 4, 6} {
		r := rng.New(uint64(900 + deg))
		source := geom.Point2{X: 3, Y: -1}
		h := newStateHarness(t, source, WithMaxOutDegree(deg))

		// Growth phase.
		for i := 0; i < 300; i++ {
			h.add(source.Add(r.UniformDisk(1)))
			if i%13 == 0 {
				h.check()
			}
		}
		h.check()

		// Churn phase: mixed joins and leaves, including occasional points
		// beyond the current scale (forcing scale-growth fallbacks) and
		// removals of arbitrary members (occasionally the outermost).
		for i := 0; i < 400; i++ {
			switch {
			case r.Intn(3) == 0 && len(h.slots) > 10:
				h.remove(r.Intn(len(h.slots)))
			case r.Intn(20) == 0:
				h.add(source.Add(r.UniformDisk(1).Scale(1.5))) // may exceed scale
			default:
				h.add(source.Add(r.UniformDisk(1)))
			}
			if i%7 == 0 {
				h.check()
			}
		}
		h.check()

		// Drain to empty, then regrow.
		for len(h.slots) > 0 {
			h.remove(r.Intn(len(h.slots)))
			if len(h.slots)%29 == 0 {
				h.check()
			}
		}
		h.check()
		for i := 0; i < 50; i++ {
			h.add(source.Add(r.UniformDisk(2)))
		}
		h.check()

		if h.incs == 0 {
			t.Fatalf("deg %d: incremental path never ran (%d fulls)", deg, h.fulls)
		}
		if h.fulls < 2 {
			t.Fatalf("deg %d: full-rebuild fallback never exercised after seeding", deg)
		}
	}
}

// Every rebuild between churn events must hit the cache: same pointer, not
// full, no error.
func TestBuildStateCachesUnchangedMembership(t *testing.T) {
	r := rng.New(4)
	h := newStateHarness(t, geom.Point2{})
	for i := 0; i < 100; i++ {
		h.add(r.UniformDisk(1))
	}
	first, full, err := h.bs.Rebuild()
	if err != nil || !full {
		t.Fatalf("first rebuild: full=%v err=%v", full, err)
	}
	again, full, err := h.bs.Rebuild()
	if err != nil || full || again != first {
		t.Fatalf("cached rebuild: full=%v err=%v same=%v", full, err, again == first)
	}
	h.add(r.UniformDisk(0.5))
	third, full, err := h.bs.Rebuild()
	if err != nil || full || third == first {
		t.Fatalf("post-churn rebuild: full=%v err=%v same=%v", full, err, third == first)
	}
}

// Degenerate geometries (no members, all members at the source) must match
// the from-scratch degenerate builds, and transition cleanly back to grids.
func TestBuildStateDegenerate(t *testing.T) {
	h := newStateHarness(t, geom.Point2{X: 1})
	h.check() // empty
	for i := 0; i < 9; i++ {
		h.add(geom.Point2{X: 1}) // coincident with the source
		h.check()
	}
	h.add(geom.Point2{X: 2}) // real geometry appears
	h.check()
	h.remove(len(h.slots) - 1) // and collapses again
	h.check()
}

// Forced-k parity: the incremental path must reject an emptied interior cell
// with exactly the from-scratch error, and recover when it refills.
func TestBuildStateForceKParity(t *testing.T) {
	source := geom.Point2{}
	h := newStateHarness(t, source, WithForceK(3))
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		h.add(r.UniformDisk(1))
	}
	h.check()
	// Empty one interior cell by removing everything in it.
	g := h.bs.g
	target := -1
	for i := len(h.slots) - 1; i >= 0; i-- {
		c := g.CellOf(h.pos[h.slots[i]].PolarAround(source))
		if target == -1 {
			if ring, _ := grid.RingIdx(c); ring == 1 {
				target = c
			}
		}
		if c == target {
			h.remove(i)
		}
	}
	if target == -1 {
		t.Fatal("no ring-1 cell found")
	}
	h.check() // both sides must error identically
	// Refill the emptied cell and verify recovery.
	ring, j := grid.RingIdx(target)
	rMid := (g.CircleRadius(ring-1) + g.CircleRadius(ring)) / 2
	theta := geom.TwoPi * (float64(j) + 0.5) / float64(grid.CellsInRing(ring))
	h.add(source.Add(geom.Polar{R: rMid, Theta: theta}.ToPoint()))
	h.check()
}

// addSlot adds a member at a chosen slot, which may be one a member freed.
func (h *stateHarness) addSlot(slot int, p geom.Point2) {
	h.bs.Add(slot, p)
	h.pos[slot] = p
	i, _ := slices.BinarySearch(h.slots, slot)
	h.slots = slices.Insert(h.slots, i, slot)
	h.next = max(h.next, slot+1)
}

// index returns the position of a member's slot among the present slots,
// the argument remove and move take.
func (h *stateHarness) index(slot int) int {
	i, ok := slices.BinarySearch(h.slots, slot)
	if !ok {
		h.t.Fatalf("slot %d is not a member", slot)
	}
	return i
}

// inCell returns the point at fractions fr of cell c's radial extent and ft
// of its angular extent.
func (h *stateHarness) inCell(c int, fr, ft float64) geom.Point2 {
	h.t.Helper()
	ring, j := grid.RingIdx(c)
	seg := h.bs.g.Segment(ring, j)
	p := h.source.Add(geom.Polar{R: seg.RMin + fr*(seg.RMax-seg.RMin), Theta: seg.ThetaMin + ft*seg.Angle()}.ToPoint())
	if got := h.bs.g.CellOf(p.PolarAround(h.source)); got != c {
		h.t.Fatalf("point %v meant for cell %d lies in cell %d", p, c, got)
	}
	return p
}

// beats reports whether a member at slot and position p would beat the one
// at slot inc as cell c's representative.
func (h *stateHarness) beats(c, slot int, p geom.Point2, inc int) bool {
	ring, j := grid.RingIdx(c)
	seg := h.bs.g.Segment(ring, j)
	return repBefore(repScore2(p.PolarAround(h.source), seg), int32(slot),
		repScore2(h.pos[inc].PolarAround(h.source), seg), int32(inc))
}

// checkChurn rebuilds, requiring the incremental path, then checks every
// cell's representative against repOf over its members and the tree
// against Build2's.
func (h *stateHarness) checkChurn(step string) {
	h.t.Helper()
	incs := h.incs
	h.check()
	if h.incs != incs+1 {
		h.t.Fatalf("%s: the rebuild ran from scratch", step)
	}
	s := h.bs
	conn := newConn2(s.g, s.geo.pts, nil)
	for c, members := range s.members {
		want := int32(-1)
		if c != 0 {
			want = repOf(members, c, conn)
		}
		if s.reps[c] != want {
			h.t.Fatalf("%s: cell %d is represented by slot %d, repOf elects %d over %v", step, c, s.reps[c], want, members)
		}
	}
}

// TestBuildStateRepresentativesFollowChurn drives every churn event that
// moves a cell's pending representative (DESIGN.md §2g) through the
// incremental path: after each rebuild every cell's representative must be
// the one repOf elects over its members, and the tree must be Build2's.
func TestBuildStateRepresentativesFollowChurn(t *testing.T) {
	for _, deg := range []int{6, 2} {
		t.Run(fmt.Sprintf("deg=%d", deg), func(t *testing.T) {
			source := geom.Point2{X: 0.5, Y: -0.25}
			h := newStateHarness(t, source, WithMaxOutDegree(deg), WithKMax(4))
			r := rng.New(uint64(70 + deg))
			for i := 0; i < 600; i++ {
				h.add(source.Add(r.UniformDisk(1)))
			}
			h.check()
			if h.bs.k != 4 {
				t.Fatalf("k = %d, want 4", h.bs.k)
			}
			// Cells 3..6 are ring 2, 7..14 ring 3 and 15..30 the outermost
			// ring 4, which alone may empty without moving k. The farthest
			// member never leaves: that would move the scale.
			farthest := h.slots[0]
			for _, sl := range h.slots {
				if h.pos[sl].Dist(source) > h.pos[farthest].Dist(source) {
					farthest = sl
				}
			}
			// The incumbent: the member the election rule picks now.
			rep := func(c int) int {
				return int(repOf(h.bs.members[c], c, newConn2(h.bs.g, h.bs.geo.pts, nil)))
			}

			// A joiner that beats the incumbent, and one that does not.
			p := h.inCell(3, 1e-3, 0.5)
			if !h.beats(3, h.next, p, rep(3)) {
				t.Fatal("cell 3: the joiner does not beat the incumbent")
			}
			h.add(p)
			h.add(h.inCell(3, 0.9, 0.1))
			// The incumbent leaves.
			h.remove(h.index(rep(4)))
			// A joiner that beats the incumbent leaves again.
			h.add(h.inCell(5, 1e-3, 0.5))
			h.remove(h.index(h.next - 1))
			// The incumbent moves within its cell, then another one moves
			// to the centre of a third cell's inner arc.
			h.move(h.index(rep(6)), h.inCell(6, 0.95, 0.95))
			h.move(h.index(rep(7)), h.inCell(8, 1e-3, 0.5))
			// Duplicates of the incumbent tie on score: a higher slot loses,
			// a freed lower slot wins.
			inc := rep(9)
			h.add(h.pos[inc])
			low := -1
			for _, sl := range h.slots {
				if sl < inc && sl != farthest && sl != rep(h.bs.g.CellOf(h.pos[sl].PolarAround(source))) {
					low = sl
					break
				}
			}
			if low < 0 {
				t.Fatal("no free slot below the incumbent")
			}
			h.remove(h.index(low))
			h.addSlot(low, h.pos[inc])
			// An outermost cell emptied and refilled in one batch.
			emptyRefill := func(c int) {
				for _, sl := range slices.Clone(h.bs.members[c]) {
					if int(sl) == farthest {
						t.Fatalf("cell %d holds the farthest member", c)
					}
					h.remove(h.index(int(sl)))
				}
			}
			emptyRefill(20)
			h.add(h.inCell(20, 0.5, 0.5))
			h.add(h.inCell(20, 0.2, 0.7))
			h.checkChurn("first batch")

			// An outermost cell emptied by one rebuild and refilled by the
			// next.
			emptyRefill(25)
			h.checkChurn("emptied")
			h.add(h.inCell(25, 0.3, 0.3))
			h.add(h.inCell(25, 0.3, 0.3))
			h.checkChurn("refilled")

			// A checkpoint taken mid-churn and restored: the restored state
			// re-encodes byte for byte, and churn goes on from it.
			h.add(h.inCell(10, 1e-3, 0.5))
			h.remove(h.index(rep(11)))
			blob := encodeState(h.bs)
			restored, err := DecodeBuildState(snapshot.NewDecoder(blob), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeState(restored), blob) {
				t.Fatal("the mid-churn checkpoint re-encodes differently")
			}
			h.bs = restored
			h.remove(h.index(rep(10)))
			h.add(h.inCell(11, 1e-3, 0.5))
			h.add(h.inCell(12, 1e-3, 0.5))
			h.checkChurn("restored")

			// Seeded random churn over the whole grid, moves included.
			for round := 0; round < 20; round++ {
				for e := 0; e < 15; e++ {
					sl := h.slots[r.Intn(len(h.slots))]
					c := h.bs.g.CellOf(h.pos[sl].PolarAround(source))
					keep := sl == farthest || (c < 15 && len(h.bs.members[c]) < 3)
					switch {
					case r.Intn(3) == 0 && !keep:
						h.remove(h.index(sl))
					case r.Intn(2) == 0 && sl != farthest:
						h.move(h.index(sl), h.inCell(c, r.Float64(), r.Float64()))
					default:
						h.add(h.inCell(1+r.Intn(30), r.Float64(), r.Float64()))
					}
				}
				h.checkChurn(fmt.Sprintf("round %d", round))
			}
		})
	}
}

// TestCellBelowMatchesDeeperGrid checks the shortcut a full rebuild counts
// the depth-k+1 populations with: from a point's ring in the depth-k grid,
// cellBelow names the same depth-k+1 cell as a lookup in that grid, also on
// and one ulp either side of every dividing circle and of segment borders.
func TestCellBelowMatchesDeeperGrid(t *testing.T) {
	r := rng.New(48)
	for k := 1; k <= 12; k++ {
		for _, scale := range []float64{1, 0.37, 3e5} {
			g, g1 := grid.PolarGrid{K: k, Scale: scale}, grid.PolarGrid{K: k + 1, Scale: scale}
			radii := []float64{0, scale}
			for i := 0; i <= k+1; i++ {
				c := g1.CircleRadius(i)
				radii = append(radii, math.Nextafter(c, 0), c, math.Nextafter(c, scale))
			}
			for range 100 {
				radii = append(radii, scale*r.Float64())
			}
			m := float64(grid.CellsInRing(k + 1))
			thetas := []float64{0, math.Nextafter(geom.TwoPi, 0)}
			for range 40 {
				b := float64(r.Intn(int(m))) * geom.TwoPi / m
				thetas = append(thetas, math.Nextafter(b, 0), b, math.Nextafter(b, geom.TwoPi), geom.TwoPi*r.Float64())
			}
			for _, rad := range radii {
				if rad > scale {
					continue
				}
				for _, th := range thetas {
					p := geom.Polar{R: rad, Theta: th}
					if got, want := cellBelow(g1, g.RingOf(rad), p), g1.CellOf(p); got != want {
						t.Fatalf("k=%d scale=%v r=%v theta=%v: cell %d, the depth-%d grid says %d", k, scale, rad, th, got, k+1, want)
					}
				}
			}
		}
	}
}
