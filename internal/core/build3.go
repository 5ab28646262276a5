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

// grid3 is a 3-D grid with the factors of its cells' arc centers. A cell's
// angular box is the product of a theta interval and a u interval (see
// grid.ShellSplits), so the center of its arc at any radius comes from one
// factor pair per axis: the theta midpoint's sine and cosine, and the cosine
// and sine of the polar-angle midpoint. They are computed once per grid, for
// every interval of every shell, through the trigonometry the per-cell form
// used, and fed through geom.Spherical.ToPoint's arithmetic, so each center
// keeps the bits it had when computed from the cell per receiver.
type grid3 struct {
	grid.SphereGrid3
	// By theta interval i of n splits, at index grid.CellID(n, i).
	sinTheta, cosTheta []float64
	// By u interval i of n splits, at index grid.CellID(n, i): cos and sin
	// of the middle of its polar-angle interval (its arc-length midpoint,
	// not that of the u interval, so the generic BuildD path agrees
	// exactly).
	cosPhi, sinPhi []float64
}

func newGrid3(g grid.SphereGrid3) *grid3 {
	nTheta, nU := grid.ShellSplits(g.K)
	g3 := &grid3{SphereGrid3: g}
	g3.sinTheta = make([]float64, grid.NumCells(nTheta))
	g3.cosTheta = make([]float64, len(g3.sinTheta))
	for n := 0; n <= nTheta; n++ {
		for i := 0; i < grid.CellsInRing(n); i++ {
			lo, hi := g.ThetaSpan(n, i)
			id := grid.CellID(n, i)
			g3.sinTheta[id], g3.cosTheta[id] = math.Sincos((lo + hi) / 2)
		}
	}
	g3.cosPhi = make([]float64, grid.NumCells(nU))
	g3.sinPhi = make([]float64, len(g3.cosPhi))
	for n := 0; n <= nU; n++ {
		for i := 0; i < grid.CellsInRing(n); i++ {
			lo, hi := g.USpan(n, i)
			id := grid.CellID(n, i)
			u := math.Cos((math.Acos(clampUnit(hi)) + math.Acos(clampUnit(lo))) / 2)
			g3.cosPhi[id], g3.sinPhi[id] = u, geom.SinOfCos(u)
		}
	}
	return g3
}

// arcCenter is the point at radius r in the middle of cell (shell, j)'s
// angular box.
func (g *grid3) arcCenter(shell, j int, r float64) geom.Point3 {
	nTheta, nU := grid.ShellSplits(shell)
	ti, ui := grid.AxisIndices(shell, j)
	t, u := grid.CellID(nTheta, ti), grid.CellID(nU, ui)
	return geom.SphericalPoint(r, g.cosPhi[u], g.sinPhi[u], g.sinTheta[t], g.cosTheta[t])
}

// repScore ranks p as the representative of cell (shell, j): the squared
// distance to the center of the cell's inner (spherical) arc. Full builds
// and repOf share it, as in 2-D.
func (g *grid3) repScore(p geom.Spherical, shell, j int) float64 {
	var rMin float64
	if shell > 0 {
		rMin = g.SphereRadius(shell - 1)
	}
	return p.ToPoint().Dist2(g.arcCenter(shell, j, rMin))
}

// classify3 returns p's cell in g and p's representative score there.
func classify3(g *grid3, p geom.Spherical) (int32, float64) {
	shell := g.ShellOf(p.R)
	j := g.SegIndexOf(shell, p.Theta, p.U)
	return int32(grid.CellID(shell, j)), g.repScore(p, shell, j)
}

// conn3 adapts the 3-D grid and Bisection context to the wiring interface.
type conn3 struct {
	ctx *bisect.Ctx3
	g   *grid3
}

// newConn3 returns the 3-D connector wiring into a.
func newConn3(g *grid3, sph []geom.Spherical, a bisect.Attacher) connector {
	return &conn3{ctx: &bisect.Ctx3{B: a, Pts: sph}, g: g}
}

func (c *conn3) repScore(cellID int, id int32) float64 {
	shell, j := grid.RingIdx(cellID)
	return c.g.repScore(c.ctx.Pts[id], shell, j)
}

// relayScore is the squared distance to the center of the cell's outer arc.
func (c *conn3) relayScore(cellID int, id int32) float64 {
	shell, j := grid.RingIdx(cellID)
	return c.ctx.Pts[id].ToPoint().Dist2(c.g.arcCenter(shell, j, c.g.SphereRadius(shell)))
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

// edges3 is the 3-D cell pass's edge-length loop (see edges2).
func edges3(pts []geom.Point3, parent []int32, edge []float64) {
	for v, p := range parent {
		if uint(p) < uint(len(pts)) {
			edge[v] = pts[p].Dist(pts[v])
		}
	}
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
	return build(receivers, opts, dimension[geom.Point3, geom.Spherical, *grid3]{
		dim:     3,
		natural: naturalDegree3D,
		source:  source,
		origin:  geom.Spherical{U: 1},
		convert: func(p geom.Point3) geom.Spherical { return p.SphericalAround(source) },
		radius:  func(c geom.Spherical) float64 { return c.R },
		edges:   edges3,
		search: func(sph []geom.Spherical, scale float64, kMax, workers int) (*grid3, int, error) {
			k := grid.MaxFeasibleK3AnalyticPar(sph, scale, kMax, workers)
			return newGrid3(grid.SphereGrid3{K: k, Scale: scale}), k, nil
		},
		classify:  classify3,
		scratch:   &scratch3,
		connector: newConn3,
	})
}
