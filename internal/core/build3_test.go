package core

import (
	"bytes"
	"math"
	"testing"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/rng"
)

// arcCenter3 is the arc center the 3-D builds computed per receiver, from
// its cell's bounds, before grid3's per-grid factors: kept as their oracle.
func arcCenter3(cell geom.ShellCell, r float64) geom.Point3 {
	phiMid := (math.Acos(clampUnit(cell.UMax)) + math.Acos(clampUnit(cell.UMin))) / 2
	return geom.Spherical{
		R:     r,
		Theta: (cell.ThetaMin + cell.ThetaMax) / 2,
		U:     math.Cos(phiMid),
	}.ToPoint()
}

// walkCell3 is cell (shell, idx) of g as the split walk bounds it, walking
// the index bits most significant first, as the grid did before its
// boundary tables.
func walkCell3(g grid.SphereGrid3, shell, idx int) geom.ShellCell {
	cell := geom.ShellCell{RMax: g.SphereRadius(shell), ThetaMax: geom.TwoPi, UMin: -1, UMax: 1}
	if shell > 0 {
		cell.RMin = g.SphereRadius(shell - 1)
	}
	for l := 1; l <= shell; l++ {
		bit := idx >> uint(shell-l) & 1
		if l%2 == 1 {
			if mid := (cell.ThetaMin + cell.ThetaMax) / 2; bit == 1 {
				cell.ThetaMin = mid
			} else {
				cell.ThetaMax = mid
			}
		} else {
			if mid := (cell.UMin + cell.UMax) / 2; bit == 1 {
				cell.UMax = mid
			} else {
				cell.UMin = mid
			}
		}
	}
	return cell
}

// perCellConn3 is conn3 with every score and cell taken per call from the
// walk's cell and arcCenter3.
type perCellConn3 struct {
	ctx *bisect.Ctx3
	g   grid.SphereGrid3
}

func (c *perCellConn3) cell(cellID int) geom.ShellCell {
	shell, j := grid.RingIdx(cellID)
	return walkCell3(c.g, shell, j)
}

func (c *perCellConn3) repScore(cellID int, id int32) float64 {
	cell := c.cell(cellID)
	return c.ctx.Pts[id].ToPoint().Dist2(arcCenter3(cell, cell.RMin))
}

func (c *perCellConn3) relayScore(cellID int, id int32) float64 {
	cell := c.cell(cellID)
	return c.ctx.Pts[id].ToPoint().Dist2(arcCenter3(cell, cell.RMax))
}

func (c *perCellConn3) pointDist2(a, b int32) float64 {
	return c.ctx.Pts[a].ToPoint().Dist2(c.ctx.Pts[b].ToPoint())
}

func (c *perCellConn3) connectNatural(idx []int32, src int32, cellID int) {
	c.ctx.Connect8(idx, src, c.cell(cellID))
}

func (c *perCellConn3) connectBinary(idx []int32, src int32, cellID int) {
	c.ctx.Connect2(idx, src, c.cell(cellID))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestArcCentersMatchPerReceiverForm checks grid3's arc centers against
// the per-receiver form they replaced, bit for bit: classify3's cell and
// score, and conn3's representative and relay scores, at every point and
// depths 1-14; then whole Build3 trees at degrees 10 and 2 against a build
// that scores and bounds every cell the per-receiver way on the walk's
// cells.
func TestArcCentersMatchPerReceiverForm(t *testing.T) {
	pts := withDuplicates(rng.New(53).UniformBall3N(20_000, 1))
	// The poles, the axes and the origin sit on split boundaries.
	pts = append(pts, geom.Point3{Z: 1}, geom.Point3{Z: -0.5}, geom.Point3{X: 0.7},
		geom.Point3{X: -0.2}, geom.Point3{Y: 0.9}, geom.Point3{Y: -0.3}, geom.Point3{})
	sph := make([]geom.Spherical, len(pts)+1)
	sph[0] = geom.Spherical{U: 1}
	var scale float64
	for i, p := range pts {
		sph[i+1] = p.ToSpherical()
		scale = math.Max(scale, sph[i+1].R)
	}
	for k := 1; k <= 14; k++ {
		g := newGrid3(grid.SphereGrid3{K: k, Scale: scale})
		conn := &conn3{ctx: &bisect.Ctx3{Pts: sph}, g: g}
		for id := 1; id < len(sph); id++ {
			p := sph[id]
			shell := g.ShellOf(p.R)
			j := g.SegIndexOf(shell, p.Theta, p.U)
			cell := walkCell3(g.SphereGrid3, shell, j)
			rep := p.ToPoint().Dist2(arcCenter3(cell, cell.RMin))
			relay := p.ToPoint().Dist2(arcCenter3(cell, cell.RMax))
			c, score := classify3(g, p)
			if int(c) != grid.CellID(shell, j) || !sameBits(score, rep) {
				t.Fatalf("k=%d point %d: classify3 (%d, %v), per receiver (%d, %v)",
					k, id, c, score, grid.CellID(shell, j), rep)
			}
			if got := conn.repScore(int(c), int32(id)); !sameBits(got, rep) {
				t.Fatalf("k=%d point %d: repScore %v, per receiver %v", k, id, got, rep)
			}
			if got := conn.relayScore(int(c), int32(id)); !sameBits(got, relay) {
				t.Fatalf("k=%d point %d: relayScore %v, per receiver %v", k, id, got, relay)
			}
		}
	}

	for _, deg := range []int{10, 2} {
		opts := []Option{WithMaxOutDegree(deg), WithParallelism(1)}
		got, err := Build3(geom.Point3{}, pts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := build(pts, opts, dimension[geom.Point3, geom.Spherical, grid.SphereGrid3]{
			dim:     3,
			natural: naturalDegree3D,
			origin:  geom.Spherical{U: 1},
			convert: func(p geom.Point3) geom.Spherical { return p.ToSpherical() },
			radius:  func(c geom.Spherical) float64 { return c.R },
			edges:   edges3,
			search: func(sph []geom.Spherical, scale float64, kMax, workers int) (grid.SphereGrid3, int, error) {
				k := grid.MaxFeasibleK3AnalyticPar(sph, scale, kMax, workers)
				return grid.SphereGrid3{K: k, Scale: scale}, k, nil
			},
			classify: func(g grid.SphereGrid3, p geom.Spherical) (int32, float64) {
				shell := g.ShellOf(p.R)
				j := g.SegIndexOf(shell, p.Theta, p.U)
				cell := walkCell3(g, shell, j)
				return int32(grid.CellID(shell, j)), p.ToPoint().Dist2(arcCenter3(cell, cell.RMin))
			},
			connector: func(g grid.SphereGrid3, sph []geom.Spherical, a bisect.Attacher) connector {
				return &perCellConn3{ctx: &bisect.Ctx3{B: a, Pts: sph}, g: g}
			},
			scratch: &scratch3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.K != want.K || !sameBits(got.Radius, want.Radius) || !sameBits(got.CoreDelay, want.CoreDelay) ||
			!bytes.Equal(treeBytes(t, got.Tree), treeBytes(t, want.Tree)) {
			t.Fatalf("degree %d: tree (k %d, radius %v, core %v) differs from the per-receiver build's (k %d, radius %v, core %v)",
				deg, got.K, got.Radius, got.CoreDelay, want.K, want.Radius, want.CoreDelay)
		}
	}
}
