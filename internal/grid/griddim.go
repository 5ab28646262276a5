package grid

import (
	"fmt"
	"math"

	"omtree/internal/geom"
)

// GridD is the general d-dimensional grid of §IV-B over a ball of radius
// Scale: dividing spheres at radii Scale * 2^((i-K)/d) (each shell holds
// twice the volume of the previous one) and angular cells formed by
// repeatedly splitting the full angular space in equal-measure halves,
// cycling through the d-1 angular axes (azimuth first, then each polar
// angle): split level l of a shell cuts axis l mod (d-1), where
// geom.AxisCut puts it. A cut depends only on the interval of its own axis,
// so a cell is the product of one interval per axis, and each axis's
// boundaries sit in a table built once per grid; point assignment then
// costs O(K) comparisons.
type GridD struct {
	D, K  int
	Scale float64

	exp2 []float64    // exp2[j] = 2^(-j/D), j in [0, K]: radius K-j over Scale
	axes []axisSplits // axes[a]: the boundaries shell K's splits put on angular axis a
}

// maxAxisSplits is the most splits NewGridD puts on one angular axis: a
// table of 2^maxAxisSplits + 1 boundaries. With one angular axis (d = 2)
// it caps the grid depth at 28.
const maxAxisSplits = 28

// axisSplitsD returns how many of the first `levels` split levels of a
// d-dimensional grid cut angular axis a: the levels a, a + (d-1), ...
func axisSplitsD(levels, d, a int) int { return (levels + d - 2 - a) / (d - 1) }

// NewGridD builds the grid and its angular tables. Cost is O(2^(K/(d-1)))
// split computations per angular axis.
func NewGridD(d, k int, scale float64) (*GridD, error) {
	if d < 2 {
		return nil, fmt.Errorf("grid: GridD needs dimension >= 2, got %d", d)
	}
	if k < 1 {
		return nil, fmt.Errorf("grid: GridD needs k >= 1, got %d", k)
	}
	if k > MaxK || axisSplitsD(k, d, 0) > maxAxisSplits {
		return nil, fmt.Errorf("grid: GridD k = %d too deep for dimension %d", k, d)
	}
	if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return nil, fmt.Errorf("grid: GridD needs positive finite scale, got %v", scale)
	}
	g := &GridD{D: d, K: k, Scale: scale, exp2: exp2Powers(d, k), axes: make([]axisSplits, d-1)}
	for a := range g.axes {
		hi := math.Pi
		if a == 0 {
			hi = geom.TwoPi
		}
		g.axes[a] = newAxisSplits(axisSplitsD(k, d, a), 0, hi, func(lo, hi float64) float64 {
			return geom.AxisCut(a, lo, hi)
		})
	}
	return g, nil
}

// NumCells returns the total number of cells, 2^(K+1) - 1.
func (g *GridD) NumCells() int { return NumCells(g.K) }

// SphereRadius returns the radius of dividing sphere i, i in [0, K].
func (g *GridD) SphereRadius(i int) float64 {
	if i < 0 || i > g.K {
		panic(fmt.Sprintf("grid: sphere index %d out of [0, %d]", i, g.K))
	}
	return g.Scale * g.exp2[g.K-i]
}

// ShellOf returns the shell containing radius r, clamped to [0, K] (NaN
// lands in shell 0).
func (g *GridD) ShellOf(r float64) int { return ringOf(r, g.Scale, g.K, g.D, g.exp2) }

// SegIndexOf returns the angular cell index of h within the given shell:
// the index the walk down the shell's split levels reaches. Each axis's
// part of the walk descends its table, and the bit its c-th split gives is
// bit c(d-1)+a of the walk, most significant first.
func (g *GridD) SegIndexOf(shell int, h geom.Hyperspherical) int {
	j := 0
	for a := range g.axes {
		x := h.Theta
		if a > 0 {
			x = h.Phi[a-1]
		}
		t := &g.axes[a]
		lo, step := 0, 1<<uint(t.depth)
		for bit := shell - 1 - a; bit >= 0; bit -= g.D - 1 {
			step >>= 1
			if x >= t.b[lo+step] {
				lo += step
				j |= 1 << uint(bit)
			}
		}
	}
	return j
}

// CellOf returns the global cell id containing the hyperspherical point h.
// h must have dimension D.
func (g *GridD) CellOf(h geom.Hyperspherical) int {
	if len(h.Phi)+2 != g.D {
		panic(fmt.Sprintf("grid: point dimension %d != grid dimension %d", len(h.Phi)+2, g.D))
	}
	shell := g.ShellOf(h.R)
	return CellID(shell, g.SegIndexOf(shell, h))
}

// Cell returns the geometric bounds of cell (shell, idx).
func (g *GridD) Cell(shell, idx int) geom.CellD {
	if shell < 0 || shell > g.K {
		panic(fmt.Sprintf("grid: shell %d out of [0, %d]", shell, g.K))
	}
	m := CellsInRing(shell)
	if idx < 0 || idx >= m {
		panic(fmt.Sprintf("grid: cell index %d out of [0, %d)", idx, m))
	}
	cell := geom.CellD{
		RMax:   g.SphereRadius(shell),
		PhiMin: make([]float64, g.D-2),
		PhiMax: make([]float64, g.D-2),
	}
	if shell > 0 {
		cell.RMin = g.SphereRadius(shell - 1)
	}
	cell.ThetaMin, cell.ThetaMax = g.span(shell, idx, 0)
	for m := range cell.PhiMin {
		cell.PhiMin[m], cell.PhiMax[m] = g.span(shell, idx, m+1)
	}
	return cell
}

// span returns the interval of angular axis a that cell (shell, idx)
// spans: the one its bits at axis a's split levels select.
func (g *GridD) span(shell, idx, a int) (lo, hi float64) {
	n, i := 0, 0
	for bit := shell - 1 - a; bit >= 0; bit -= g.D - 1 {
		n, i = n+1, i<<1|idx>>uint(bit)&1
	}
	return g.axes[a].span(n, i)
}

// MaxArc returns the largest angular detour across any cell of the given
// shell: R_shell * max over cells of the summed angular widths. This is the
// d-dimensional Delta_i. Every combination of one interval per axis is a
// cell, and float addition is monotone in each term, so the maximum is the
// sum of each axis's widest interval.
func (g *GridD) MaxArc(shell int) float64 {
	var maxAngle float64
	for a := range g.axes {
		t := &g.axes[a]
		n := axisSplitsD(shell, g.D, a)
		var w float64
		for i := 0; i < 1<<uint(n); i++ {
			lo, hi := t.span(n, i)
			w = max(w, hi-lo)
		}
		maxAngle += w
	}
	return g.SphereRadius(shell) * maxAngle
}

// InnerArcSum returns the d-dimensional S_k: summed angular detours of
// shells 1..K-1.
func (g *GridD) InnerArcSum() float64 {
	var s float64
	for i := 1; i <= g.K-1; i++ {
		s += g.MaxArc(i)
	}
	return s
}

// UpperBound evaluates the d-dimensional analogue of inequality (7) at
// shell 0.
func (g *GridD) UpperBound(arcCoeff float64) float64 {
	return g.Scale + arcCoeff*g.MaxArc(0) + g.InnerArcSum()
}
