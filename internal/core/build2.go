package core

import (
	"fmt"
	"math"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/tree"
)

// naturalDegree2D is 2 core links + the 4-way Bisection fan-out.
const naturalDegree2D = 6

// conn2 adapts the 2-D grid and Bisection context to the wiring interface.
type conn2 struct {
	ctx *bisect.Ctx2
	g   grid.PolarGrid
}

// polarDist2 is the squared distance from p to the point at radius r and
// angle theta, by the law of cosines: the one formula behind every 2-D
// score.
func polarDist2(p geom.Polar, r, theta float64) float64 {
	return p.R*p.R + r*r - 2*p.R*r*math.Cos(p.Theta-theta)
}

// repScore2 ranks p as the representative of the cell bounded by seg: the
// squared distance to the center of the cell's inner arc. The bucketing
// pass of a full build and repOf's single-cell re-election both call it,
// so the two make the same float operations.
func repScore2(p geom.Polar, seg geom.RingSegment) float64 {
	return polarDist2(p, seg.RMin, seg.MidTheta())
}

// classify2 returns p's cell in g and p's representative score there.
func classify2(g grid.PolarGrid, p geom.Polar) (int32, float64) {
	ring := g.RingOf(p.R)
	j := g.SegIndexOf(ring, p.Theta)
	return int32(grid.CellID(ring, j)), repScore2(p, g.Segment(ring, j))
}

func (c *conn2) repScore(cellID int, id int32) float64 {
	ring, j := grid.RingIdx(cellID)
	return repScore2(c.ctx.Pts[id], c.g.Segment(ring, j))
}

// relayScore is the squared distance to the center of the cell's outer arc.
func (c *conn2) relayScore(cellID int, id int32) float64 {
	ring, j := grid.RingIdx(cellID)
	seg := c.g.Segment(ring, j)
	return polarDist2(c.ctx.Pts[id], seg.RMax, seg.MidTheta())
}

func (c *conn2) pointDist2(a, b int32) float64 {
	pb := c.ctx.Pts[b]
	return polarDist2(c.ctx.Pts[a], pb.R, pb.Theta)
}

func (c *conn2) connectNatural(idx []int32, src int32, cellID int) {
	ring, j := grid.RingIdx(cellID)
	c.ctx.Connect4(idx, src, c.g.Segment(ring, j))
}

func (c *conn2) connectBinary(idx []int32, src int32, cellID int) {
	ring, j := grid.RingIdx(cellID)
	c.ctx.Connect2(idx, src, c.g.Segment(ring, j))
}

// Build2 runs Algorithm Polar_Grid over planar receivers with the given
// source. Node 0 of the resulting tree is the source and node i >= 1 is
// receivers[i-1]. The default (no options) builds the natural out-degree-6
// variant; WithMaxOutDegree(2) or (3) selects the binary variant.
//
// The construction works for any receiver layout (§IV-C): coordinates are
// taken relative to the source and the grid is scaled to the farthest
// receiver. Asymptotic optimality additionally needs the receivers to fill
// a convex region around the source with density bounded below.
//
// WithParallelism fans the construction over a worker pool; parallel and
// serial builds of the same input produce identical trees.
func Build2(source geom.Point2, receivers []geom.Point2, opts ...Option) (*Result, error) {
	if !source.IsFinite() {
		return nil, fmt.Errorf("core: source %v: %w", source, ErrNonFinite)
	}
	o := buildOptions(opts)
	variant, degCap, err := variantFor(o.maxOutDegree, naturalDegree2D)
	if err != nil {
		return nil, err
	}
	n := len(receivers)
	workers := o.effectiveWorkers(n)
	o.obs.Gauge("build/workers").Set(float64(workers))
	in := newInstr(o, 2, n)
	defer in.finish()

	endConv := in.phase("build/convert")
	polars := make([]geom.Polar, n+1)
	scale, err := convertCoords(workers, receivers, polars,
		func(p geom.Point2) geom.Polar { return p.PolarAround(source) },
		func(c geom.Polar) float64 { return c.R })
	endConv()
	if err != nil {
		return nil, err
	}
	dist := func(i, j int) float64 {
		pi, pj := source, source
		if i > 0 {
			pi = receivers[i-1]
		}
		if j > 0 {
			pj = receivers[j-1]
		}
		return pi.Dist(pj)
	}

	res := &Result{Dim: 2, Variant: variant, MaxOutDegree: degCap, Scale: scale}
	if n == 0 || scale == 0 {
		// No receivers, or all coincident with the source: geometry is
		// degenerate and any balanced tree is optimal (zero-length edges).
		if res.Tree, err = buildDegenerate(n, degCap); err != nil {
			return nil, err
		}
		return res, nil
	}

	endGrid := in.phase("build/grid")
	k, err := pickK(o, n, func(k int) bool {
		return grid.PolarGrid{K: k, Scale: scale}.InteriorOccupied(polars[1:])
	}, func(kMax int) int {
		if o.trialK {
			return grid.MaxFeasibleK(polars[1:], scale, kMax)
		}
		return grid.MaxFeasibleKAnalytic(polars[1:], scale, kMax)
	})
	endGrid()
	if err != nil {
		return nil, err
	}
	g := grid.PolarGrid{K: k, Scale: scale}

	endBucket := in.phase("build/bucketing")
	groups, tallies := bucketCells(workers, g.NumCells(), n, nil, func(i int) (int32, float64) {
		return classify2(g, polars[i+1])
	})
	endBucket()
	endReps := in.phase("build/reps")
	reps := electReps(tallies)
	endReps()
	if workers > 1 {
		res.Tree, err = wireParallel(n, k, g.NumCells(), degCap, workers, groups, reps,
			func(a bisect.Attacher) connector {
				return &conn2{ctx: &bisect.Ctx2{B: a, Pts: polars}, g: g}
			}, variant, in)
		if err != nil {
			return nil, err
		}
	} else {
		b, berr := tree.NewBuilder(n+1, 0, degCap)
		if berr != nil {
			return nil, berr
		}
		conn := &conn2{ctx: &bisect.Ctx2{B: b, Pts: polars}, g: g}
		endWire := in.phase("build/wire")
		wireCore(b, k, groups, reps, conn, variant, in)
		endWire()
		if res.Tree, err = b.Build(); err != nil {
			return nil, fmt.Errorf("core: incomplete wiring (bug): %w", err)
		}
	}
	endMetrics := in.phase("build/metrics")
	delays := res.Tree.Delays(dist)
	res.K = k
	res.Radius = maxOf(delays)
	res.CoreDelay = coreDelay(delays, reps)
	res.Bound = g.UpperBound(arcCoeff(variant))
	endMetrics()
	return res, nil
}

// arcCoeff is the Delta_0 coefficient of upper bound (7): 2 for the natural
// variant, doubled to 4 when the in-cell Bisection spends two links per
// level (§IV-A) — which both the binary and the hybrid variants do.
func arcCoeff(v Variant) float64 {
	if v == VariantNatural {
		return 2
	}
	return 4
}

// attachAllKary attaches receivers 1..n under the source as a balanced
// k-ary tree (degenerate-geometry fallback).
func attachAllKary(b *tree.Builder, n, k int) {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i + 1)
	}
	bisect.AttachKary(b, idx, 0, k)
}

// buildDegenerate handles the no-receivers / all-coincident-with-source case
// shared by every dimension: geometry is useless and any balanced tree is
// optimal (all edges have zero length).
func buildDegenerate(n, degCap int) (*tree.Tree, error) {
	b, err := tree.NewBuilder(n+1, 0, degCap)
	if err != nil {
		return nil, err
	}
	attachAllKary(b, n, degCap)
	return b.Build()
}

// pickK resolves the ring count: a forced value (validated for interior
// occupancy) or the largest feasible value up to the search ceiling.
func pickK(o options, n int, feasible func(k int) bool, search func(kMax int) int) (int, error) {
	if o.forceK > 0 {
		if !feasible(o.forceK) {
			return 0, fmt.Errorf("core: forced k = %d leaves an interior grid cell empty", o.forceK)
		}
		return o.forceK, nil
	}
	kMax := o.kMax
	if kMax <= 0 {
		kMax = grid.DefaultKMax(n)
	}
	return search(kMax), nil
}
