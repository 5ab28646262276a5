package grid

import "omtree/internal/geom"

// The downward trial loops: the definition of the grid depth, kept as the
// oracles the analytic searches are checked against. Each candidate depth
// gets one occupancy scan, from kMax down to the first depth whose interior
// cells (rings 1..k-1) all hold a point; k = 1 always qualifies.

// interiorOccupied reports whether cells(k, visit) reaches every interior
// cell of a depth-k grid; cells calls visit with the ring and angular index
// of each point.
func interiorOccupied(k int, cells func(visit func(ring, idx int))) bool {
	if k == 1 {
		return true // no interior rings
	}
	// Interior ids span [1, 2^k - 1).
	seen := make([]bool, 1<<uint(k)-2)
	need := len(seen)
	cells(func(ring, idx int) {
		if ring == 0 || ring == k {
			return
		}
		if id := CellID(ring, idx) - 1; !seen[id] {
			seen[id] = true
			need--
		}
	})
	return need == 0
}

// InteriorOccupied reports whether every cell of rings 1..K-1 holds at
// least one of the points: the occupancy part of the paper's grid
// property 3 (ring 0 is covered by the source; the outermost ring is
// exempt).
func (g PolarGrid) InteriorOccupied(polars []geom.Polar) bool {
	return interiorOccupied(g.K, func(visit func(int, int)) {
		for _, c := range polars {
			ring := g.RingOf(c.R)
			visit(ring, g.SegIndexOf(ring, c.Theta))
		}
	})
}

// InteriorOccupiedSlots is InteriorOccupied over pts[slots[0]], ... .
func (g PolarGrid) InteriorOccupiedSlots(pts []geom.Polar, slots []int32) bool {
	return interiorOccupied(g.K, func(visit func(int, int)) {
		for _, sl := range slots {
			ring := g.RingOf(pts[sl].R)
			visit(ring, g.SegIndexOf(ring, pts[sl].Theta))
		}
	})
}

// InteriorOccupied reports whether every cell of shells 1..K-1 holds at
// least one point.
func (g SphereGrid3) InteriorOccupied(sphericals []geom.Spherical) bool {
	return interiorOccupied(g.K, func(visit func(int, int)) {
		for _, c := range sphericals {
			shell := g.ShellOf(c.R)
			visit(shell, g.SegIndexOf(shell, c.Theta, c.U))
		}
	})
}

// InteriorOccupied reports whether every cell of shells 1..K-1 holds at
// least one point.
func (g *GridD) InteriorOccupied(hs []geom.Hyperspherical) bool {
	return interiorOccupied(g.K, func(visit func(int, int)) {
		for _, h := range hs {
			shell := g.ShellOf(h.R)
			visit(shell, g.SegIndexOf(shell, h))
		}
	})
}

// trialK returns the largest k in [1, kMax] for which feasible(k) holds,
// scanning downward.
func trialK(kMax int, feasible func(k int) bool) int {
	for k := kMax; k > 1; k-- {
		if feasible(k) {
			return k
		}
	}
	return 1
}

// MaxFeasibleK is the 2-D trial loop.
func MaxFeasibleK(polars []geom.Polar, scale float64, kMax int) int {
	return trialK(kMax, func(k int) bool { return PolarGrid{K: k, Scale: scale}.InteriorOccupied(polars) })
}

// MaxFeasibleKSlots is MaxFeasibleK over the slot subset.
func MaxFeasibleKSlots(pts []geom.Polar, slots []int32, scale float64, kMax int) int {
	return trialK(kMax, func(k int) bool { return PolarGrid{K: k, Scale: scale}.InteriorOccupiedSlots(pts, slots) })
}

// MaxFeasibleK3 is the 3-D trial loop.
func MaxFeasibleK3(sphericals []geom.Spherical, scale float64, kMax int) int {
	return trialK(kMax, func(k int) bool { return SphereGrid3{K: k, Scale: scale}.InteriorOccupied(sphericals) })
}

// MaxFeasibleKD is the d-dimensional trial loop, returning the grid; like
// the analytic search it fails when a candidate grid cannot be built.
func MaxFeasibleKD(d int, hs []geom.Hyperspherical, scale float64, kMax int) (*GridD, error) {
	for k := max(kMax, 1); ; k-- {
		g, err := NewGridD(d, k, scale)
		if err != nil {
			return nil, err
		}
		if g.InteriorOccupied(hs) { // always true at k = 1
			return g, nil
		}
	}
}
