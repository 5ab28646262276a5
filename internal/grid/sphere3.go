package grid

import (
	"fmt"
	"math"

	"omtree/internal/geom"
)

// SphereGrid3 is the 3-D grid of §IV-B over a ball of radius Scale: K
// dividing spheres at radii Scale/cbrt(2)^(K-i) produce shells 0..K (shell 0
// the inner ball), each shell holding twice the volume of the one inside it.
// Shell i is divided into 2^i equal-measure cells by splitting the angular
// box (theta, u = cos(polar angle)) alternately along theta (odd split
// levels) and u (even split levels); both are midpoint splits because the
// sphere's surface measure is uniform in (theta, u).
type SphereGrid3 struct {
	K     int
	Scale float64
}

// NumCells returns the total number of cells, 2^(K+1) - 1.
func (g SphereGrid3) NumCells() int { return NumCells(g.K) }

// SphereRadius returns the radius of dividing sphere i, i in [0, K]:
// Scale * 2^((i-K)/3).
func (g SphereGrid3) SphereRadius(i int) float64 {
	if i < 0 || i > g.K {
		panic(fmt.Sprintf("grid: sphere index %d out of [0, %d]", i, g.K))
	}
	return g.Scale * exp2Third[g.K-i]
}

// ShellOf returns the shell containing radius r, clamped to [0, K] (NaN
// lands in shell 0).
func (g SphereGrid3) ShellOf(r float64) int { return ringOf(r, g.Scale, g.K, 3, exp2Third) }

// splitAxisTheta reports whether split level l (1-based) splits along theta;
// levels alternate theta, u, theta, u, ... .
func splitAxisTheta(l int) bool { return l%2 == 1 }

// SegIndexOf returns the angular cell index of the spherical direction
// (theta, u) within the given shell, by walking the shell's split levels.
func (g SphereGrid3) SegIndexOf(shell int, theta, u float64) int {
	tLo, tHi := 0.0, geom.TwoPi
	uLo, uHi := -1.0, 1.0
	j := 0
	for l := 1; l <= shell; l++ {
		if splitAxisTheta(l) {
			mid := (tLo + tHi) / 2
			if theta >= mid {
				j = 2*j + 1
				tLo = mid
			} else {
				j = 2 * j
				tHi = mid
			}
		} else {
			// The u axis orders bits by the polar angle (matching GridD's
			// phi ordering): bit 1 is the larger-phi, smaller-u half.
			mid := (uLo + uHi) / 2
			if u < mid {
				j = 2*j + 1
				uHi = mid
			} else {
				j = 2 * j
				uLo = mid
			}
		}
	}
	return j
}

// CellOf returns the global cell id containing the spherical point c.
func (g SphereGrid3) CellOf(c geom.Spherical) int {
	shell := g.ShellOf(c.R)
	return CellID(shell, g.SegIndexOf(shell, c.Theta, c.U))
}

// Cell returns the geometric bounds of cell (shell, idx).
func (g SphereGrid3) Cell(shell, idx int) geom.ShellCell {
	if shell < 0 || shell > g.K {
		panic(fmt.Sprintf("grid: shell %d out of [0, %d]", shell, g.K))
	}
	m := CellsInRing(shell)
	if idx < 0 || idx >= m {
		panic(fmt.Sprintf("grid: cell index %d out of [0, %d)", idx, m))
	}
	cell := geom.ShellCell{
		RMax:     g.SphereRadius(shell),
		ThetaMin: 0, ThetaMax: geom.TwoPi,
		UMin: -1, UMax: 1,
	}
	if shell > 0 {
		cell.RMin = g.SphereRadius(shell - 1)
	}
	// Recover the split path from the index bits, most significant first.
	for l := 1; l <= shell; l++ {
		bit := (idx >> uint(shell-l)) & 1
		if splitAxisTheta(l) {
			mid := (cell.ThetaMin + cell.ThetaMax) / 2
			if bit == 1 {
				cell.ThetaMin = mid
			} else {
				cell.ThetaMax = mid
			}
		} else {
			mid := (cell.UMin + cell.UMax) / 2
			if bit == 1 {
				cell.UMax = mid
			} else {
				cell.UMin = mid
			}
		}
	}
	return cell
}

// MaxArc returns an upper bound on the angular detour across a cell of the
// given shell: R_shell * (theta width + polar width). It plays the role of
// Delta_i in the 3-D version of the upper bound.
func (g SphereGrid3) MaxArc(shell int) float64 {
	cell := g.Cell(shell, 0)
	thetaWidth := cell.ThetaMax - cell.ThetaMin
	polarWidth := math.Acos(cell.UMin) - math.Acos(cell.UMax)
	return g.SphereRadius(shell) * (thetaWidth + polarWidth)
}

// InnerArcSum returns the 3-D analogue of S_k: the summed angular detours of
// shells 1..K-1.
func (g SphereGrid3) InnerArcSum() float64 {
	var s float64
	for i := 1; i <= g.K-1; i++ {
		s += g.MaxArc(i)
	}
	return s
}

// UpperBound evaluates the 3-D analogue of inequality (7) at shell 0.
func (g SphereGrid3) UpperBound(arcCoeff float64) float64 {
	return g.Scale + arcCoeff*g.MaxArc(0) + g.InnerArcSum()
}
