package grid

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"omtree/internal/geom"
)

// The classifiers' former bodies, kept as oracles: every dividing radius
// straight from math.Exp2, and a first guess from math.Log2. The guard
// loops are the same as in the production classifiers, so the two must
// agree on every input; the radius tables and the Frexp guess are what is
// under test.

func oracleRadius(scale float64, i, k, d int) float64 {
	return scale * math.Exp2(float64(i-k)/float64(d))
}

// oracleRing is the Log2-guess RingOf/ShellOf body for a depth-k grid
// whose radii grow by 2^(1/d).
func oracleRing(scale float64, k, d int, r float64) int {
	if r <= 0 {
		return 0
	}
	if r >= scale {
		return k
	}
	i := int(math.Ceil(float64(k) + float64(d)*math.Log2(r/scale)))
	if i < 0 {
		i = 0
	}
	if i > k {
		i = k
	}
	for i > 0 && r <= oracleRadius(scale, i-1, k, d) {
		i--
	}
	for i < k && r > oracleRadius(scale, i, k, d) {
		i++
	}
	return i
}

// oracleScales covers ordinary, extreme and infinite grid scales.
var oracleScales = []float64{1, 0.7, 3.3e5, 1e-300, 1e300, 5e-324, math.MaxFloat64, math.Inf(1)}

// probeRadii returns the radii to classify in a depth-k grid: every
// dividing radius and its two neighbouring floats, zero, negatives,
// subnormals, radii at and beyond the scale, the infinities and NaN.
func probeRadii(scale float64, k, d int) []float64 {
	rs := []float64{
		0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64,
		math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022,
		scale, math.Nextafter(scale, math.Inf(1)), 2 * scale, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for i := 0; i <= k; i++ {
		c := oracleRadius(scale, i, k, d)
		rs = append(rs, math.Nextafter(c, 0), c, math.Nextafter(c, math.Inf(1)))
	}
	return rs
}

// sameRing compares a classifier with the oracle over every probe radius.
func sameRing(t *testing.T, name string, scale float64, k, d int, classify func(float64) int) {
	t.Helper()
	for _, r := range probeRadii(scale, k, d) {
		if got, want := classify(r), oracleRingNaN0(scale, k, d, r); got != want {
			t.Fatalf("%s: d=%d k=%d scale=%v r=%v (%#x): ring %d, oracle %d",
				name, d, k, scale, r, math.Float64bits(r), got, want)
		}
	}
}

func TestRadiusTablesMatchExp2(t *testing.T) {
	for k := 1; k <= MaxK; k++ {
		for _, s := range oracleScales {
			g2, g3 := PolarGrid{K: k, Scale: s}, SphereGrid3{K: k, Scale: s}
			for i := 0; i <= k; i++ {
				if got, want := g2.CircleRadius(i), oracleRadius(s, i, k, 2); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("2-D k=%d scale=%v circle %d: %v, Exp2 gives %v", k, s, i, got, want)
				}
				if got, want := g3.SphereRadius(i), oracleRadius(s, i, k, 3); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("3-D k=%d scale=%v sphere %d: %v, Exp2 gives %v", k, s, i, got, want)
				}
			}
		}
	}
	for d := 2; d <= 6; d++ {
		g, err := NewGridD(d, 10, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= g.K; i++ {
			if got, want := g.SphereRadius(i), oracleRadius(1.5, i, 10, d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("GridD d=%d sphere %d: %v, Exp2 gives %v", d, i, got, want)
			}
		}
	}
}

func TestRingOfMatchesOracle(t *testing.T) {
	for k := 1; k <= MaxK; k++ {
		for _, s := range oracleScales {
			sameRing(t, "PolarGrid.RingOf", s, k, 2, PolarGrid{K: k, Scale: s}.RingOf)
		}
	}
}

func TestShellOfMatchesOracle(t *testing.T) {
	for k := 1; k <= MaxK; k++ {
		for _, s := range oracleScales {
			sameRing(t, "SphereGrid3.ShellOf", s, k, 3, SphereGrid3{K: k, Scale: s}.ShellOf)
		}
	}
}

// shellGridD returns a GridD carrying exactly what ShellOf reads. NewGridD
// would also build the angular tables, up to 2^14 polar cuts at d = 3 and
// k = 28, which ShellOf never touches; the radius table is the one NewGridD
// fills.
func shellGridD(d, k int, scale float64) *GridD {
	return &GridD{D: d, K: k, Scale: scale, exp2: exp2Powers(d, k)}
}

func TestGridDShellOfMatchesOracle(t *testing.T) {
	for d := 3; d <= 6; d++ {
		for k := 1; k <= 28; k++ {
			for _, s := range oracleScales {
				sameRing(t, "GridD.ShellOf", s, k, d, shellGridD(d, k, s).ShellOf)
			}
		}
		// A constructed grid classifies the same way.
		g, err := NewGridD(d, 9, 2)
		if err != nil {
			t.Fatal(err)
		}
		sameRing(t, "NewGridD.ShellOf", 2, 9, d, g.ShellOf)
	}
}

func TestConstructorsRejectBeyondMaxK(t *testing.T) {
	if _, err := NewPolarGrid(MaxK+1, 1); err == nil {
		t.Errorf("NewPolarGrid accepted k = %d", MaxK+1)
	}
	if _, err := NewPolarGrid(MaxK, 1); err != nil {
		t.Errorf("NewPolarGrid rejected k = MaxK: %v", err)
	}
}

// oracleRingNaN0 is oracleRing with NaN sent to ring 0, where both the
// oracle (by way of an implementation-defined float-to-int conversion) and
// the classifiers (explicitly) put it.
func oracleRingNaN0(scale float64, k, d int, r float64) int {
	if math.IsNaN(r) {
		return 0
	}
	return oracleRing(scale, k, d, r)
}

// oracleSegIndex3 is SphereGrid3.SegIndexOf's former body, the walk down
// the shell's split levels, kept as the oracle for its boundary tables.
func oracleSegIndex3(shell int, theta, u float64) int {
	tLo, tHi := 0.0, geom.TwoPi
	uLo, uHi := -1.0, 1.0
	j := 0
	for l := 1; l <= shell; l++ {
		if l%2 == 1 {
			mid := (tLo + tHi) / 2
			if theta >= mid {
				j = 2*j + 1
				tLo = mid
			} else {
				j = 2 * j
				tHi = mid
			}
		} else {
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

// oracleCell3 is SphereGrid3.Cell's former body: the bounds recovered by
// walking the index bits, most significant first.
func oracleCell3(g SphereGrid3, shell, idx int) geom.ShellCell {
	cell := geom.ShellCell{
		RMax:     g.SphereRadius(shell),
		ThetaMin: 0, ThetaMax: geom.TwoPi,
		UMin: -1, UMax: 1,
	}
	if shell > 0 {
		cell.RMin = g.SphereRadius(shell - 1)
	}
	for l := 1; l <= shell; l++ {
		bit := (idx >> uint(shell-l)) & 1
		if l%2 == 1 {
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

func sameShellCell(a, b geom.ShellCell) bool {
	x := [...]float64{a.RMin, a.RMax, a.ThetaMin, a.ThetaMax, a.UMin, a.UMax}
	y := [...]float64{b.RMin, b.RMax, b.ThetaMin, b.ThetaMax, b.UMin, b.UMax}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// walkBounds returns the boundaries n midpoint splits put on [lo, hi],
// ascending, each the midpoint of the interval it splits, as the walk
// computes it.
func walkBounds(n int, lo, hi float64) []float64 {
	if n == 0 {
		return []float64{lo, hi}
	}
	mid := (lo + hi) / 2
	b := walkBounds(n-1, lo, mid)
	return append(b[:len(b)-1], walkBounds(n-1, mid, hi)...)
}

// probeAxis returns the values to classify on one angular axis: every
// boundary in bounds and the floats on either side of it, plus values
// beyond the axis, the infinities and NaN.
func probeAxis(bounds []float64) []float64 {
	vs := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		-math.SmallestNonzeroFloat64, -1.5, -7, 7, 1e300, -1e300, math.MaxFloat64,
	}
	for _, b := range bounds {
		vs = append(vs, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
	}
	return vs
}

// sphereLookupMismatch compares SegIndexOf with the walk at (theta, u),
// and the Cell of the index found with the walk's cell, bit for bit. It
// describes the first difference, or returns "" when there is none.
func sphereLookupMismatch(g SphereGrid3, shell int, theta, u float64) string {
	idx := g.SegIndexOf(shell, theta, u)
	if want := oracleSegIndex3(shell, theta, u); idx != want {
		return fmt.Sprintf("K=%d shell %d theta=%v (%#x) u=%v (%#x): index %d, walk %d",
			g.K, shell, theta, math.Float64bits(theta), u, math.Float64bits(u), idx, want)
	}
	if got, want := g.Cell(shell, idx), oracleCell3(g, shell, idx); !sameShellCell(got, want) {
		return fmt.Sprintf("K=%d cell (%d, %d): %+v, walk %+v", g.K, shell, idx, got, want)
	}
	return ""
}

// TestSphereLookupMatchesWalk checks the table-driven SegIndexOf and Cell
// against the walk at every shell of every depth up to MaxK, so the tables
// (depths up to maxTableK) and the walk past them are both covered. In a
// tabulated grid each shell is probed on every boundary either axis has at
// that shell and the floats beside it, each paired with probes of the other
// axis in turn (all pairs while both lists are short); a deeper grid, which
// the walk serves, on the boundaries of the first 6 levels of each axis, as
// are the shells just outside each grid.
func TestSphereLookupMatchesWalk(t *testing.T) {
	var thetaProbes, uProbes [maxTableK/2 + 2][]float64
	for n := range thetaProbes {
		thetaProbes[n] = probeAxis(walkBounds(n, 0, geom.TwoPi))
		uProbes[n] = probeAxis(walkBounds(n, -1, 1))
	}
	for k := 0; k <= MaxK; k++ {
		g := SphereGrid3{K: k, Scale: 1}
		for shell := 0; shell <= k; shell++ {
			nTheta, nU := ShellSplits(shell)
			if k > maxTableK {
				nTheta, nU = min(nTheta, 6), min(nU, 6)
			}
			thetas, us := thetaProbes[nTheta], uProbes[nU]
			check := func(th, u float64) {
				if msg := sphereLookupMismatch(g, shell, th, u); msg != "" {
					t.Fatal(msg)
				}
			}
			if len(thetas)*len(us) <= 1<<14 {
				for _, th := range thetas {
					for _, u := range us {
						check(th, u)
					}
				}
				continue
			}
			for i, th := range thetas {
				check(th, us[i%len(us)])
			}
			for i, u := range us {
				check(thetas[i%len(thetas)], u)
			}
		}
		// Shells outside the grid's have no table rows; they are walked.
		for _, shell := range []int{-1, k + 1} {
			nTheta, nU := ShellSplits(max(shell, 0))
			thetas, us := thetaProbes[min(nTheta, 6)], uProbes[min(nU, 6)]
			for i, th := range thetas {
				u := us[i%len(us)]
				if got, want := g.SegIndexOf(shell, th, u), oracleSegIndex3(shell, th, u); got != want {
					t.Fatalf("K=%d shell %d theta=%v u=%v: index %d, walk %d", k, shell, th, u, got, want)
				}
			}
		}
	}
}

// TestSphereCellMatchesWalk compares Cell with the walk on every cell of
// shells 0..12, at every depth that has them.
func TestSphereCellMatchesWalk(t *testing.T) {
	for k := 0; k <= MaxK; k++ {
		g := SphereGrid3{K: k, Scale: 0.7}
		for shell := 0; shell <= min(k, 12); shell++ {
			for idx := 0; idx < CellsInRing(shell); idx++ {
				if got, want := g.Cell(shell, idx), oracleCell3(g, shell, idx); !sameShellCell(got, want) {
					t.Fatalf("K=%d cell (%d, %d): %+v, walk %+v", k, shell, idx, got, want)
				}
			}
		}
	}
}

// oracleGridD is GridD's former body, kept as the oracle for its angular
// tables: every angular box of every level materialized, with the split
// value taking each box to the next level. Levels do not depend on the
// grid's depth, so one oracle of depth k serves every shell up to k.
type oracleGridD struct {
	d      int
	levels []oracleLevelD
}

// oracleLevelD holds the angular boxes at one subdivision level and the
// split values taking them to the next level.
type oracleLevelD struct {
	axis   int       // angular axis split to produce the next level
	splits []float64 // split value per box; len 2^level (empty at level K)
	boxes  []oracleBox
}

// oracleBox is the angular part of a cell: intervals per angular axis, axis
// 0 being theta and axis m+1 being Phi[m].
type oracleBox struct {
	lo, hi []float64
}

func (b oracleBox) clone() oracleBox {
	return oracleBox{
		lo: append([]float64(nil), b.lo...),
		hi: append([]float64(nil), b.hi...),
	}
}

func newOracleGridD(d, k int) *oracleGridD {
	o := &oracleGridD{d: d, levels: make([]oracleLevelD, k+1)}
	full := oracleBox{lo: make([]float64, d-1), hi: make([]float64, d-1)}
	full.hi[0] = geom.TwoPi
	for m := 1; m < d-1; m++ {
		full.hi[m] = math.Pi
	}
	o.levels[0] = oracleLevelD{boxes: []oracleBox{full}}
	for l := 0; l < k; l++ {
		axis := l % (d - 1)
		cur := &o.levels[l]
		cur.axis = axis
		cur.splits = make([]float64, len(cur.boxes))
		next := oracleLevelD{boxes: make([]oracleBox, 0, 2*len(cur.boxes))}
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
		o.levels[l+1] = next
	}
	return o
}

func (o *oracleGridD) segIndexOf(shell int, h geom.Hyperspherical) int {
	j := 0
	for l := 0; l < shell; l++ {
		lv := &o.levels[l]
		x := h.Theta
		if lv.axis > 0 {
			x = h.Phi[lv.axis-1]
		}
		if x >= lv.splits[j] {
			j = 2*j + 1
		} else {
			j = 2 * j
		}
	}
	return j
}

// cell is the oracle's Cell of g's cell (shell, idx): g's radii around the
// oracle's box.
func (o *oracleGridD) cell(g *GridD, shell, idx int) geom.CellD {
	box := o.levels[shell].boxes[idx]
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

// upperBound is GridD.UpperBound through the oracle's MaxArc, the maximum
// over every box of the shell.
func (o *oracleGridD) upperBound(g *GridD, arcCoeff float64) float64 {
	maxArc := func(shell int) float64 {
		var maxAngle float64
		for _, box := range o.levels[shell].boxes {
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
	var inner float64
	for i := 1; i <= g.K-1; i++ {
		inner += maxArc(i)
	}
	return g.Scale + arcCoeff*maxArc(0) + inner
}

func sameCellD(a, b geom.CellD) bool {
	x := append([]float64{a.RMin, a.RMax, a.ThetaMin, a.ThetaMax}, append(a.PhiMin, a.PhiMax...)...)
	y := append([]float64{b.RMin, b.RMax, b.ThetaMin, b.ThetaMax}, append(b.PhiMin, b.PhiMax...)...)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// gridDLookupMismatch compares g's SegIndexOf with the oracle's at h, and
// the Cell of the index found with the oracle's cell, bit for bit. It
// describes the first difference, or returns "" when there is none.
func gridDLookupMismatch(g *GridD, o *oracleGridD, shell int, h geom.Hyperspherical) string {
	idx := g.SegIndexOf(shell, h)
	if want := o.segIndexOf(shell, h); idx != want {
		return fmt.Sprintf("d=%d K=%d shell %d theta=%v phi=%v: index %d, oracle %d",
			g.D, g.K, shell, h.Theta, h.Phi, idx, want)
	}
	if got, want := g.Cell(shell, idx), o.cell(g, shell, idx); !sameCellD(got, want) {
		return fmt.Sprintf("d=%d K=%d cell (%d, %d): %+v, oracle %+v", g.D, g.K, shell, idx, got, want)
	}
	return ""
}

// oracleGridsD holds one depth-14 oracle per dimension 2..6, built on first
// use.
var oracleGridsD = sync.OnceValue(func() map[int]*oracleGridD {
	m := make(map[int]*oracleGridD)
	for d := 2; d <= 6; d++ {
		m[d] = newOracleGridD(d, 14)
	}
	return m
})

// axisBoundsD returns the distinct bounds the boxes of a shell of o have on
// angular axis a.
func axisBoundsD(o *oracleGridD, shell, a int) []float64 {
	var bs []float64
	seen := make(map[float64]bool)
	for _, box := range o.levels[shell].boxes {
		for _, b := range [2]float64{box.lo[a], box.hi[a]} {
			if !seen[b] {
				seen[b] = true
				bs = append(bs, b)
			}
		}
	}
	return bs
}

// TestGridDLookupMatchesOracle checks the table-driven GridD against the
// materialized levels at d = 2..6, at every shell of every depth 1..14: the
// angular index and cell bounds on every boundary each axis has at that
// shell and the floats beside it, with NaN, the infinities and angles
// outside [0, 2pi) and [0, pi], each paired with the other axes' probes in
// turn; the bounds of every cell of the shell; and UpperBound(2) and
// UpperBound(4).
func TestGridDLookupMatchesOracle(t *testing.T) {
	for d := 2; d <= 6; d++ {
		o := oracleGridsD()[d]
		for k := 1; k <= 14; k++ {
			g, err := NewGridD(d, k, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []float64{2, 4} {
				if got, want := g.UpperBound(c), o.upperBound(g, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("d=%d K=%d UpperBound(%v) = %v, oracle %v", d, k, c, got, want)
				}
			}
			for shell := 0; shell <= k; shell++ {
				probes := make([][]float64, d-1)
				for a := range probes {
					probes[a] = probeAxis(axisBoundsD(o, shell, a))
				}
				for a, ps := range probes {
					for i, x := range ps {
						h := geom.Hyperspherical{R: 0.5, Phi: make([]float64, d-2)}
						for b := range probes {
							v := probes[b][(i+b)%len(probes[b])]
							if b == a {
								v = x
							}
							if b == 0 {
								h.Theta = v
							} else {
								h.Phi[b-1] = v
							}
						}
						if msg := gridDLookupMismatch(g, o, shell, h); msg != "" {
							t.Fatal(msg)
						}
					}
				}
				for idx := 0; idx < CellsInRing(shell); idx++ {
					if got, want := g.Cell(shell, idx), o.cell(g, shell, idx); !sameCellD(got, want) {
						t.Fatalf("d=%d K=%d cell (%d, %d): %+v, oracle %+v", d, k, shell, idx, got, want)
					}
				}
			}
		}
	}
}

// FuzzCellOf checks the table-driven classifiers against the Exp2/Log2
// oracles on arbitrary radii, scales, angles and depths: the cell CellOf
// returns must sit in the oracle's ring, at the angular index of that ring.
// The 3-D angular lookup and its cell bounds are checked against the walk,
// and the d-D ones against the materialized levels, at every shell, on any
// direction at all.
func FuzzCellOf(f *testing.F) {
	f.Add(uint8(12), 1.0, 0.5, 1.0, 0.3)
	f.Add(uint8(1), 1.0, 1.0, 0.0, -1.0)
	f.Add(uint8(61), 1e300, 1e-300, 6.2, 0.99)
	f.Add(uint8(20), math.Inf(1), 3.0, 3.0, 0.0)
	f.Add(uint8(7), 2.0, math.NaN(), 1.0, 0.5)
	f.Add(uint8(30), 1.0, 5e-324, 2.0, -0.5)
	f.Add(uint8(17), 1.0, 0.5, math.NaN(), math.Inf(-1))
	f.Add(uint8(29), 1.0, 0.5, -0.25, 1.5)
	f.Fuzz(func(t *testing.T, kb uint8, scale, r, theta, u float64) {
		k := 1 + int(kb)%MaxK
		g3 := SphereGrid3{K: k, Scale: 1}
		for shell := 0; shell <= k; shell++ {
			if msg := sphereLookupMismatch(g3, shell, theta, u); msg != "" {
				t.Fatal(msg)
			}
		}

		d, kd := 2+int(kb)%5, 1+int(kb)%14
		gd, err := NewGridD(d, kd, 1)
		if err != nil {
			t.Fatal(err)
		}
		// The polar angles take the fuzzed u and theta in turn, any float.
		h := geom.Hyperspherical{R: r, Theta: theta, Phi: make([]float64, d-2)}
		for m := range h.Phi {
			h.Phi[m] = [2]float64{u, theta}[m%2]
		}
		for shell := 0; shell <= kd; shell++ {
			if msg := gridDLookupMismatch(gd, oracleGridsD()[d], shell, h); msg != "" {
				t.Fatal(msg)
			}
		}

		if !(scale > 0) || math.IsNaN(theta) || math.IsInf(theta, 0) || !(u >= -1 && u <= 1) {
			return // outside what the grids and the coordinate types produce
		}
		theta = geom.NormalizeAngle(theta)

		g2 := PolarGrid{K: k, Scale: scale}
		want := oracleRingNaN0(scale, k, 2, r)
		if ring, idx := RingIdx(g2.CellOf(geom.Polar{R: r, Theta: theta})); ring != want || idx != g2.SegIndexOf(want, theta) {
			t.Fatalf("2-D k=%d scale=%v r=%v theta=%v: cell (%d, %d), oracle ring %d", k, scale, r, theta, ring, idx, want)
		}

		g3.Scale = scale
		want = oracleRingNaN0(scale, k, 3, r)
		if ring, idx := RingIdx(g3.CellOf(geom.Spherical{R: r, Theta: theta, U: u})); ring != want || idx != oracleSegIndex3(want, theta, u) {
			t.Fatalf("3-D k=%d scale=%v r=%v: cell (%d, %d), oracle shell %d at index %d",
				k, scale, r, ring, idx, want, oracleSegIndex3(want, theta, u))
		}

		d, kd = 3+int(kb)%4, 1+int(kb)%28
		want = oracleRingNaN0(scale, kd, d, r)
		if got := shellGridD(d, kd, scale).ShellOf(r); got != want {
			t.Fatalf("GridD d=%d k=%d scale=%v r=%v: shell %d, oracle %d", d, kd, scale, r, got, want)
		}
	})
}
