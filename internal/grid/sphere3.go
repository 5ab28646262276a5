package grid

import (
	"fmt"
	"math"
	"sync/atomic"

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

// ShellSplits returns how many of shell's split levels cut theta and how
// many cut u: levels alternate theta, u, theta, ..., so ceil(shell/2) and
// floor(shell/2). A shell's cells are the products of its 2^nTheta theta
// intervals and its 2^nU u intervals.
func ShellSplits(shell int) (nTheta, nU int) { return (shell + 1) / 2, shell / 2 }

// AxisIndices splits the angular index idx of a cell of shell into the
// index of its theta interval and of its u interval: the bits idx took at
// the theta levels and at the u levels, each most significant first.
func AxisIndices(shell, idx int) (ti, ui int) {
	t, u := uint64(idx), uint64(idx)>>1 // an odd shell's last level, bit 0, split theta
	if shell&1 == 0 {
		t, u = u, t
	}
	return int(compactEven(t)), int(compactEven(u))
}

// joinAxes inverts AxisIndices.
func joinAxes(shell, ti, ui int) int {
	t, u := spreadEven(uint64(ti)), spreadEven(uint64(ui))
	if shell&1 == 0 {
		return int(t<<1 | u)
	}
	return int(t | u<<1)
}

// spreadEven moves bit i of the low 32 bits of x to bit 2i.
func spreadEven(x uint64) uint64 {
	x &= 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compactEven inverts spreadEven: bit 2i of x moves to bit i, and the odd
// bits are dropped.
func compactEven(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return x
}

// maxTableK is the deepest grid whose angular boundaries are tabulated: its
// outermost shell splits each axis 15 times, 2^15 + 1 boundaries (256 KiB)
// per axis. A deeper grid needs more than 2^30 receivers; it classifies by
// walking the split levels.
const maxTableK = 30

// axisSplits holds the boundaries that depth splits put on one angular
// axis [lo, hi]: b[0] = lo, b[2^depth] = hi, and each inner boundary
// cut(b[i-h], b[i+h]), the split rule applied to the interval it splits,
// computed as the walk computes it. So the bounds the walk reaches after
// n <= depth splits are entries of b at stride 2^(depth-n), and b ascends.
type axisSplits struct {
	depth   int
	b       []float64
	lo      float64
	perUnit float64 // 2^depth / (hi - lo): the index guess's factor
}

func newAxisSplits(depth int, lo, hi float64, cut func(lo, hi float64) float64) axisSplits {
	n := 1 << depth
	b := make([]float64, n+1)
	b[0], b[n] = lo, hi
	for h := n / 2; h > 0; h /= 2 {
		for i := h; i < n; i += 2 * h {
			b[i] = cut(b[i-h], b[i+h])
		}
	}
	return axisSplits{depth: depth, b: b, lo: lo, perUnit: float64(n) / (hi - lo)}
}

// midpoint is SphereGrid3's split rule on both axes.
func midpoint(lo, hi float64) float64 { return (lo + hi) / 2 }

// atMost returns how many inner boundaries are at most x, none for NaN:
// the index of x's interval when x >= mid takes the upper half, as on the
// theta axis. The guess from x's offset lies within a step of the answer;
// the guard loops compare x with the boundaries themselves, so they, not
// the guess, decide the index.
func (s *axisSplits) atMost(x float64) int {
	top := len(s.b) - 2
	i := 0
	if f := (x - s.lo) * s.perUnit; f >= float64(top) {
		i = top
	} else if f > 0 {
		i = int(f)
	}
	for i > 0 && x < s.b[i] {
		i--
	}
	for i < top && x >= s.b[i+1] {
		i++
	}
	return i
}

// above returns how many inner boundaries exceed x, none for NaN: the
// index of x's interval on the u axis, whose bits order the halves by polar
// angle (u < mid, the larger-angle half, takes bit 1).
func (s *axisSplits) above(x float64) int {
	if math.IsNaN(x) {
		return 0
	}
	return len(s.b) - 2 - s.atMost(x)
}

// span returns the bounds of interval i of n <= depth splits.
func (s *axisSplits) span(n, i int) (lo, hi float64) {
	sh := s.depth - n
	return s.b[i<<sh], s.b[(i+1)<<sh]
}

// sphereSplits are the theta and u boundaries of a depth-K grid's
// outermost shell, which hold those of every shell inside it.
type sphereSplits struct{ theta, u axisSplits }

// sphereSplitsByK holds the tables of each depth up to maxTableK, built on
// first use and read-only after; concurrent first uses may build a depth
// twice, and one copy wins.
var sphereSplitsByK [maxTableK + 1]atomic.Pointer[sphereSplits]

// splits returns g's tables, or nil past maxTableK.
func (g SphereGrid3) splits() *sphereSplits {
	if g.K < 0 || g.K > maxTableK {
		return nil
	}
	slot := &sphereSplitsByK[g.K]
	if t := slot.Load(); t != nil {
		return t
	}
	nTheta, nU := ShellSplits(g.K)
	slot.CompareAndSwap(nil, &sphereSplits{
		theta: newAxisSplits(nTheta, 0, geom.TwoPi, midpoint),
		u:     newAxisSplits(nU, -1, 1, midpoint),
	})
	return slot.Load()
}

// SegIndexOf returns the angular cell index of the spherical direction
// (theta, u) within the given shell: the index the walk down the shell's
// split levels reaches. For a shell of the grid it is read from the grid's
// boundary tables, axis by axis, and the two indices interleaved; past
// maxTableK, or outside the grid's shells, it is walked.
func (g SphereGrid3) SegIndexOf(shell int, theta, u float64) int {
	nTheta, nU := ShellSplits(shell)
	if t := g.splits(); t != nil && uint(shell) <= uint(g.K) {
		return joinAxes(shell, t.theta.atMost(theta)>>(t.theta.depth-nTheta), t.u.above(u)>>(t.u.depth-nU))
	}
	return joinAxes(shell, walkTheta(nTheta, theta), walkU(nU, u))
}

// walkTheta is the theta half of the split walk: n levels, each sending
// theta >= mid to the upper half, bit 1.
func walkTheta(n int, theta float64) int {
	lo, hi := 0.0, geom.TwoPi
	j := 0
	for l := 0; l < n; l++ {
		mid := (lo + hi) / 2
		if theta >= mid {
			j = 2*j + 1
			lo = mid
		} else {
			j = 2 * j
			hi = mid
		}
	}
	return j
}

// walkU is the u half of the split walk: n levels, each sending u < mid to
// the lower half, bit 1 (GridD's phi ordering: the larger-phi half).
func walkU(n int, u float64) int {
	lo, hi := -1.0, 1.0
	j := 0
	for l := 0; l < n; l++ {
		mid := (lo + hi) / 2
		if u < mid {
			j = 2*j + 1
			hi = mid
		} else {
			j = 2 * j
			lo = mid
		}
	}
	return j
}

// ThetaSpan returns the bounds of theta interval i in [0, 2^n) of a shell
// split n times along theta: the bounds the split walk reaches. The grid's
// tables hold them for n up to ceil(K/2); past that they are walked.
func (g SphereGrid3) ThetaSpan(n, i int) (lo, hi float64) {
	if t := g.splits(); t != nil && uint(n) <= uint(t.theta.depth) {
		return t.theta.span(n, i)
	}
	lo, hi = 0, geom.TwoPi
	for l := n - 1; l >= 0; l-- {
		if mid := (lo + hi) / 2; i>>uint(l)&1 == 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// USpan returns the bounds of u interval i in [0, 2^n) of a shell split n
// times along u, numbered as SegIndexOf numbers it (bit 1 the smaller-u
// half). The grid's tables hold them for n up to floor(K/2); past that they
// are walked.
func (g SphereGrid3) USpan(n, i int) (lo, hi float64) {
	if t := g.splits(); t != nil && uint(n) <= uint(t.u.depth) {
		return t.u.span(n, 1<<uint(n)-1-i)
	}
	lo, hi = -1, 1
	for l := n - 1; l >= 0; l-- {
		if mid := (lo + hi) / 2; i>>uint(l)&1 == 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
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
	cell := geom.ShellCell{RMax: g.SphereRadius(shell)}
	if shell > 0 {
		cell.RMin = g.SphereRadius(shell - 1)
	}
	nTheta, nU := ShellSplits(shell)
	ti, ui := AxisIndices(shell, idx)
	cell.ThetaMin, cell.ThetaMax = g.ThetaSpan(nTheta, ti)
	cell.UMin, cell.UMax = g.USpan(nU, ui)
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
