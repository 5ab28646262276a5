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
// angle). Polar-angle splits land at equal-measure points of the sin^p
// weight, computed once per cell at construction; point assignment then
// costs O(K) comparisons.
type GridD struct {
	D, K  int
	Scale float64

	exp2   []float64 // exp2[j] = 2^(-j/D), j in [0, K]: radius K-j over Scale
	levels []levelD
}

// levelD holds the angular boxes at one subdivision level and the split
// values taking them to the next level.
type levelD struct {
	axis   int       // angular axis split to produce the next level
	splits []float64 // split value per box; len 2^level (empty at level K)
	boxes  []angBox  // box per cell; len 2^level
}

// angBox is the angular part of a cell: intervals per angular axis, axis 0
// being theta and axis m+1 being Phi[m].
type angBox struct {
	lo, hi []float64
}

func (b angBox) clone() angBox {
	return angBox{
		lo: append([]float64(nil), b.lo...),
		hi: append([]float64(nil), b.hi...),
	}
}

// axisOf returns the angular axis used to split level l into level l+1,
// cycling through the axes.
func axisOf(l, d int) int { return l % (d - 1) }

// NewGridD builds the grid, precomputing all angular boxes and split values
// for levels 0..K. Cost is O(2^K) split computations.
func NewGridD(d, k int, scale float64) (*GridD, error) {
	if d < 2 {
		return nil, fmt.Errorf("grid: GridD needs dimension >= 2, got %d", d)
	}
	if k < 1 {
		return nil, fmt.Errorf("grid: GridD needs k >= 1, got %d", k)
	}
	if k > 28 {
		return nil, fmt.Errorf("grid: GridD k = %d too deep to materialize", k)
	}
	if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(scale) {
		return nil, fmt.Errorf("grid: GridD needs positive finite scale, got %v", scale)
	}
	g := &GridD{D: d, K: k, Scale: scale, exp2: exp2Powers(d, k), levels: make([]levelD, k+1)}

	full := angBox{lo: make([]float64, d-1), hi: make([]float64, d-1)}
	full.hi[0] = geom.TwoPi
	for m := 1; m < d-1; m++ {
		full.hi[m] = math.Pi
	}
	g.levels[0] = levelD{boxes: []angBox{full}}

	for l := 0; l < k; l++ {
		axis := axisOf(l, d)
		cur := &g.levels[l]
		cur.axis = axis
		cur.splits = make([]float64, len(cur.boxes))
		next := levelD{boxes: make([]angBox, 0, 2*len(cur.boxes))}
		for j, box := range cur.boxes {
			var split float64
			if axis == 0 {
				split = (box.lo[0] + box.hi[0]) / 2
			} else {
				split = geom.SinPowerSplit(axis, box.lo[axis], box.hi[axis])
			}
			cur.splits[j] = split
			lo, hi := box.clone(), box.clone()
			lo.hi[axis], hi.lo[axis] = split, split
			next.boxes = append(next.boxes, lo, hi)
		}
		g.levels[l+1] = next
	}
	return g, nil
}

// NumRings returns the number of shells, K+1.
func (g *GridD) NumRings() int { return g.K + 1 }

// NumCells returns the total number of cells, 2^(K+1) - 1.
func (g *GridD) NumCells() int { return NumCells(g.K) }

// SphereRadius returns the radius of dividing sphere i, i in [0, K].
func (g *GridD) SphereRadius(i int) float64 {
	if i < 0 || i > g.K {
		panic(fmt.Sprintf("grid: sphere index %d out of [0, %d]", i, g.K))
	}
	return g.radius(i)
}

// radius is SphereRadius without the range check: Scale * 2^((i-K)/D),
// read from the grid's exact power table.
func (g *GridD) radius(i int) float64 { return g.Scale * g.exp2[g.K-i] }

// ShellOf returns the shell containing radius r, clamped to [0, K] (NaN
// lands in shell 0).
func (g *GridD) ShellOf(r float64) int {
	if !(r > 0) {
		return 0
	}
	if r >= g.Scale {
		return g.K
	}
	i := firstGuess(r, g.Scale, g.K, g.D)
	for i > 0 && r <= g.radius(i-1) {
		i--
	}
	for i < g.K && r > g.radius(i) {
		i++
	}
	return i
}

// angularValue extracts the coordinate of h along an angular axis.
func angularValue(h geom.Hyperspherical, axis int) float64 {
	if axis == 0 {
		return h.Theta
	}
	return h.Phi[axis-1]
}

// SegIndexOf returns the angular cell index of h within the given shell by
// walking the precomputed split values.
func (g *GridD) SegIndexOf(shell int, h geom.Hyperspherical) int {
	j := 0
	for l := 0; l < shell; l++ {
		lv := &g.levels[l]
		if angularValue(h, lv.axis) >= lv.splits[j] {
			j = 2*j + 1
		} else {
			j = 2 * j
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
	box := g.levels[shell].boxes[idx]
	cell := geom.CellD{
		RMax:     g.SphereRadius(shell),
		ThetaMin: box.lo[0], ThetaMax: box.hi[0],
		PhiMin: append([]float64(nil), box.lo[1:]...),
		PhiMax: append([]float64(nil), box.hi[1:]...),
	}
	if shell > 0 {
		cell.RMin = g.SphereRadius(shell - 1)
	}
	return cell
}

// MaxArc returns the largest angular detour across any cell of the given
// shell: R_shell * max over cells of the summed angular widths. This is the
// d-dimensional Delta_i.
func (g *GridD) MaxArc(shell int) float64 {
	var maxAngle float64
	for _, box := range g.levels[shell].boxes {
		var a float64
		for m := range box.lo {
			a += box.hi[m] - box.lo[m]
		}
		if a > maxAngle {
			maxAngle = a
		}
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

// Assign maps every hyperspherical point to its global cell id.
func (g *GridD) Assign(hs []geom.Hyperspherical) []int32 {
	ids := make([]int32, len(hs))
	for i, h := range hs {
		ids[i] = int32(g.CellOf(h))
	}
	return ids
}

// InteriorOccupied reports whether every cell of shells 1..K-1 holds at
// least one point.
func (g *GridD) InteriorOccupied(hs []geom.Hyperspherical) bool {
	if g.K == 1 {
		return true
	}
	lo, hi := 1, 1<<uint(g.K)-1
	seen := make([]bool, hi-lo)
	need := hi - lo
	for _, h := range hs {
		shell := g.ShellOf(h.R)
		if shell == 0 || shell == g.K {
			continue
		}
		id := CellID(shell, g.SegIndexOf(shell, h))
		if !seen[id-lo] {
			seen[id-lo] = true
			need--
			if need == 0 {
				return true
			}
		}
	}
	return need == 0
}

// MaxFeasibleKD returns the largest k in [1, kMax] whose d-dimensional grid
// has all interior cells occupied, scanning downward, along with the grid
// itself (grids are expensive to rebuild in high dimension).
func MaxFeasibleKD(d int, hs []geom.Hyperspherical, scale float64, kMax int) (*GridD, error) {
	if kMax < 1 {
		kMax = 1
	}
	for k := kMax; k >= 1; k-- {
		g, err := NewGridD(d, k, scale)
		if err != nil {
			return nil, err
		}
		if k == 1 || g.InteriorOccupied(hs) {
			return g, nil
		}
	}
	return NewGridD(d, 1, scale)
}
