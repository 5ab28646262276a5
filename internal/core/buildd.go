package core

import (
	"fmt"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/tree"
)

// connD adapts the d-dimensional grid and Bisection context to the wiring
// interface.
type connD struct {
	ctx *bisect.CtxD
	g   *grid.GridD
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
	o := buildOptions(opts)
	natural := 1<<uint(d) + 2
	variant, degCap, err := variantFor(o.maxOutDegree, natural)
	if err != nil {
		return nil, err
	}
	n := len(receivers)
	workers := o.effectiveWorkers(n)
	o.obs.Gauge("build/workers").Set(float64(workers))
	in := newInstr(o, d, n)
	defer in.finish()

	endConv := in.phase("build/convert")
	hs := make([]geom.Hyperspherical, n+1)
	hs[0] = geom.Hyperspherical{Phi: make([]float64, d-2)}
	scale, err := convertCoords(workers, receivers, hs,
		func(p geom.Vec) geom.Hyperspherical { return p.Sub(source).ToHyperspherical() },
		func(c geom.Hyperspherical) float64 { return c.R })
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

	res := &Result{Dim: d, Variant: variant, MaxOutDegree: degCap, Scale: scale}
	if n == 0 || scale == 0 {
		if res.Tree, err = buildDegenerate(n, degCap); err != nil {
			return nil, err
		}
		return res, nil
	}

	endGrid := in.phase("build/grid")
	var g *grid.GridD
	if o.forceK > 0 {
		g, err = grid.NewGridD(d, o.forceK, scale)
		if err != nil {
			endGrid()
			return nil, err
		}
		if o.forceK > 1 && !g.InteriorOccupied(hs[1:]) {
			endGrid()
			return nil, fmt.Errorf("core: forced k = %d leaves an interior grid cell empty", o.forceK)
		}
	} else {
		kMax := o.kMax
		if kMax <= 0 {
			kMax = grid.DefaultKMax(n)
		}
		if o.trialK {
			g, err = grid.MaxFeasibleKD(d, hs[1:], scale, kMax)
		} else {
			g, err = grid.MaxFeasibleKDAnalytic(d, hs[1:], scale, kMax)
		}
		if err != nil {
			endGrid()
			return nil, err
		}
	}
	endGrid()

	endBucket := in.phase("build/bucketing")
	groups, tallies := bucketCells(workers, g.NumCells(), n, nil, func(i int) (int32, float64) {
		return classifyD(g, hs[i+1])
	})
	endBucket()
	endReps := in.phase("build/reps")
	reps := electReps(tallies)
	endReps()
	if workers > 1 {
		res.Tree, err = wireParallel(n, g.K, g.NumCells(), degCap, workers, groups, reps,
			func(a bisect.Attacher) connector {
				return &connD{ctx: &bisect.CtxD{B: a, Pts: hs}, g: g}
			}, variant, in)
		if err != nil {
			return nil, err
		}
	} else {
		b, berr := tree.NewBuilder(n+1, 0, degCap)
		if berr != nil {
			return nil, berr
		}
		conn := &connD{ctx: &bisect.CtxD{B: b, Pts: hs}, g: g}
		endWire := in.phase("build/wire")
		wireCore(b, g.K, groups, reps, conn, variant, in)
		endWire()
		if res.Tree, err = b.Build(); err != nil {
			return nil, fmt.Errorf("core: incomplete wiring (bug): %w", err)
		}
	}
	endMetrics := in.phase("build/metrics")
	delays := res.Tree.Delays(dist)
	res.K = g.K
	res.Radius = maxOf(delays)
	res.CoreDelay = coreDelay(delays, reps)
	res.Bound = g.UpperBound(arcCoeff(variant))
	endMetrics()
	return res, nil
}
