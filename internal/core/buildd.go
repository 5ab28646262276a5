package core

import (
	"fmt"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
)

// connD adapts the d-dimensional grid and Bisection context to the wiring
// interface.
type connD struct {
	ctx *bisect.CtxD
	g   *grid.GridD
}

// newConnD returns the d-dimensional connector wiring into a.
func newConnD(g *grid.GridD, hs []geom.Hyperspherical, a bisect.Attacher) connector {
	return &connD{ctx: &bisect.CtxD{B: a, Pts: hs}, g: g}
}

// arcCenterD is the point at radius r in the middle of every angular
// interval of cell.
func arcCenterD(cell geom.CellD, r float64) geom.Vec {
	center := geom.Hyperspherical{
		R:     r,
		Theta: (cell.ThetaMin + cell.ThetaMax) / 2,
		Phi:   make([]float64, len(cell.PhiMin)),
	}
	for m := range center.Phi {
		center.Phi[m] = (cell.PhiMin[m] + cell.PhiMax[m]) / 2
	}
	return center.ToVec()
}

// repScoreD ranks h as the representative of cell: the squared distance to
// the center of the cell's inner arc. Full builds and repOf share it, as in
// 2-D.
func repScoreD(h geom.Hyperspherical, cell geom.CellD) float64 {
	return h.ToVec().Dist2(arcCenterD(cell, cell.RMin))
}

// classifyD returns h's cell in g and h's representative score there.
func classifyD(g *grid.GridD, h geom.Hyperspherical) (int32, float64) {
	shell := g.ShellOf(h.R)
	j := g.SegIndexOf(shell, h)
	return int32(grid.CellID(shell, j)), repScoreD(h, g.Cell(shell, j))
}

func (c *connD) repScore(cellID int, id int32) float64 {
	shell, j := grid.RingIdx(cellID)
	return repScoreD(c.ctx.Pts[id], c.g.Cell(shell, j))
}

// relayScore is the squared distance to the center of the cell's outer arc.
func (c *connD) relayScore(cellID int, id int32) float64 {
	shell, j := grid.RingIdx(cellID)
	cell := c.g.Cell(shell, j)
	return c.ctx.Pts[id].ToVec().Dist2(arcCenterD(cell, cell.RMax))
}

func (c *connD) pointDist2(a, b int32) float64 {
	return c.ctx.Pts[a].ToVec().Dist2(c.ctx.Pts[b].ToVec())
}

func (c *connD) connectNatural(idx []int32, src int32, cellID int) {
	shell, j := grid.RingIdx(cellID)
	c.ctx.ConnectFull(idx, src, c.g.Cell(shell, j))
}

func (c *connD) connectBinary(idx []int32, src int32, cellID int) {
	shell, j := grid.RingIdx(cellID)
	c.ctx.Connect2(idx, src, c.g.Cell(shell, j))
}

// BuildD runs Algorithm Polar_Grid in general dimension d >= 2 (§IV-B).
// The source and all receivers must share dimension d; node 0 is the
// source. The natural variant has out-degree 2^d + 2; WithMaxOutDegree in
// [2, 2^d+2) selects the binary variant. For heavy 2-D or 3-D workloads
// prefer Build2 / Build3, which use specialized coordinates.
func BuildD(source geom.Vec, receivers []geom.Vec, opts ...Option) (*Result, error) {
	d := len(source)
	if d < 2 {
		return nil, fmt.Errorf("core: dimension %d < 2", d)
	}
	for i, p := range receivers {
		if len(p) != d {
			return nil, fmt.Errorf("core: receiver %d has dimension %d, want %d", i, len(p), d)
		}
	}
	if !source.IsFinite() {
		return nil, fmt.Errorf("core: source %v: %w", source, ErrNonFinite)
	}
	return build(receivers, opts, dimension[geom.Vec, geom.Hyperspherical, *grid.GridD]{
		dim:     d,
		natural: 1<<uint(d) + 2,
		origin:  geom.Hyperspherical{Phi: make([]float64, d-2)},
		convert: func(p geom.Vec) geom.Hyperspherical { return p.Sub(source).ToHyperspherical() },
		radius:  func(c geom.Hyperspherical) float64 { return c.R },
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
		search: func(hs []geom.Hyperspherical, scale float64, kMax int) (*grid.GridD, int, error) {
			g, err := grid.MaxFeasibleKDAnalytic(d, hs, scale, kMax)
			if err != nil {
				return nil, 0, err
			}
			return g, g.K, nil
		},
		classify:  classifyD,
		connector: newConnD,
	})
}
