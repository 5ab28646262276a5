package core

import (
	"fmt"
	"math"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
)

// naturalDegree3D is 2 core links + the 8-way Bisection fan-out (§V: "the
// straightforward extension of our algorithm builds a tree of out-degree
// 10").
const naturalDegree3D = 10

// conn3 adapts the 3-D grid and Bisection context to the wiring interface.
type conn3 struct {
	ctx *bisect.Ctx3
	g   grid.SphereGrid3
}

// newConn3 returns the 3-D connector wiring into a.
func newConn3(g grid.SphereGrid3, sph []geom.Spherical, a bisect.Attacher) connector {
	return &conn3{ctx: &bisect.Ctx3{B: a, Pts: sph}, g: g}
}

// arcCenter3 is the point at radius r in the middle of cell's angular box:
// the middle of the polar-angle interval (its arc-length midpoint, not that
// of the u interval, so the generic BuildD path agrees exactly) and of the
// azimuth interval.
func arcCenter3(cell geom.ShellCell, r float64) geom.Point3 {
	phiMid := (math.Acos(clampUnit(cell.UMax)) + math.Acos(clampUnit(cell.UMin))) / 2
	return geom.Spherical{
		R:     r,
		Theta: (cell.ThetaMin + cell.ThetaMax) / 2,
		U:     math.Cos(phiMid),
	}.ToPoint()
}

// repScore3 ranks p as the representative of cell: the squared distance to
// the center of the cell's inner (spherical) arc. Full builds and repOf
// share it, as in 2-D.
func repScore3(p geom.Spherical, cell geom.ShellCell) float64 {
	return p.ToPoint().Dist2(arcCenter3(cell, cell.RMin))
}

// classify3 returns p's cell in g and p's representative score there.
func classify3(g grid.SphereGrid3, p geom.Spherical) (int32, float64) {
	shell := g.ShellOf(p.R)
	j := g.SegIndexOf(shell, p.Theta, p.U)
	return int32(grid.CellID(shell, j)), repScore3(p, g.Cell(shell, j))
}

func (c *conn3) repScore(cellID int, id int32) float64 {
	shell, j := grid.RingIdx(cellID)
	return repScore3(c.ctx.Pts[id], c.g.Cell(shell, j))
}

// relayScore is the squared distance to the center of the cell's outer arc.
func (c *conn3) relayScore(cellID int, id int32) float64 {
	shell, j := grid.RingIdx(cellID)
	cell := c.g.Cell(shell, j)
	return c.ctx.Pts[id].ToPoint().Dist2(arcCenter3(cell, cell.RMax))
}

func (c *conn3) pointDist2(a, b int32) float64 {
	return c.ctx.Pts[a].ToPoint().Dist2(c.ctx.Pts[b].ToPoint())
}

func (c *conn3) connectNatural(idx []int32, src int32, cellID int) {
	shell, j := grid.RingIdx(cellID)
	c.ctx.Connect8(idx, src, c.g.Cell(shell, j))
}

func (c *conn3) connectBinary(idx []int32, src int32, cellID int) {
	shell, j := grid.RingIdx(cellID)
	c.ctx.Connect2(idx, src, c.g.Cell(shell, j))
}

func clampUnit(x float64) float64 {
	if x < -1 {
		return -1
	}
	if x > 1 {
		return 1
	}
	return x
}

// Build3 runs Algorithm Polar_Grid in three dimensions (§IV-B, Figure 8's
// experiment). Node 0 is the source; node i >= 1 is receivers[i-1]. The
// default builds the natural out-degree-10 variant; WithMaxOutDegree(d) for
// d in [2, 10) selects the binary out-degree-2 variant.
func Build3(source geom.Point3, receivers []geom.Point3, opts ...Option) (*Result, error) {
	if !source.IsFinite() {
		return nil, fmt.Errorf("core: source %v: %w", source, ErrNonFinite)
	}
	return build(receivers, opts, dimension[geom.Point3, geom.Spherical, grid.SphereGrid3]{
		dim:     3,
		natural: naturalDegree3D,
		origin:  geom.Spherical{U: 1},
		convert: func(p geom.Point3) geom.Spherical { return p.SphericalAround(source) },
		radius:  func(c geom.Spherical) float64 { return c.R },
		dist: func(i, j int) float64 {
			pi, pj := source, source
			if i > 0 {
				pi = receivers[i-1]
			}
			if j > 0 {
				pj = receivers[j-1]
			}
			return pi.Dist(pj)
		},
		search: func(sph []geom.Spherical, scale float64, kMax, workers int) (grid.SphereGrid3, int, error) {
			k := grid.MaxFeasibleK3AnalyticPar(sph, scale, kMax, workers)
			return grid.SphereGrid3{K: k, Scale: scale}, k, nil
		},
		classify:  classify3,
		connector: newConn3,
	})
}
