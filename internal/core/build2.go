package core

import (
	"fmt"
	"math"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
)

// naturalDegree2D is 2 core links + the 4-way Bisection fan-out.
const naturalDegree2D = 6

// conn2 adapts the 2-D grid and Bisection context to the wiring interface.
type conn2 struct {
	ctx *bisect.Ctx2
	g   grid.PolarGrid
}

// newConn2 returns the 2-D connector wiring into a.
func newConn2(g grid.PolarGrid, polars []geom.Polar, a bisect.Attacher) connector {
	return &conn2{ctx: &bisect.Ctx2{B: a, Pts: polars}, g: g}
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

// edges2 is the 2-D cell pass's edge-length loop: edge[v] is the distance
// from pts[parent[v]] to pts[v] for every v whose parent is in range (the
// proof reports the others).
func edges2(pts []geom.Point2, parent []int32, edge []float64) {
	for v, p := range parent {
		if uint(p) < uint(len(pts)) {
			edge[v] = pts[p].Dist(pts[v])
		}
	}
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
	return build(receivers, opts, dimension[geom.Point2, geom.Polar, grid.PolarGrid]{
		dim:     2,
		natural: naturalDegree2D,
		source:  source,
		convert: func(p geom.Point2) geom.Polar { return p.PolarAround(source) },
		radius:  func(c geom.Polar) float64 { return c.R },
		edges:   edges2,
		search: func(polars []geom.Polar, scale float64, kMax, workers int) (grid.PolarGrid, int, error) {
			k := grid.MaxFeasibleKAnalyticPar(polars, scale, kMax, workers)
			return grid.PolarGrid{K: k, Scale: scale}, k, nil
		},
		classify:  classify2,
		scratch:   &scratch2,
		connector: newConn2,
	})
}
