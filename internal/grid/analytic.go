package grid

import (
	"math"

	"omtree/internal/geom"
)

// This file picks the grid depth — the largest k whose interior cells are
// all occupied ("choose the number of rings k as large as possible",
// §III-A) — with an analytic estimate plus a single verification pass,
// where a downward trial loop would run one full bucketing pass per
// candidate k. The trial loop survives in the package tests as the oracle
// every search here is checked against.
//
// Estimate. The grid's rings are equal-measure by construction in every
// dimension: ring i of a depth-k grid holds the fraction 2^(i-k-1) of the
// ball's volume and is cut into 2^i equal cells, so every interior cell
// holds the fraction 2^-(k+1). Under the paper's uniform-density model the
// expected number of empty interior cells is therefore
//
//	E(k) = (2^k - 2) * exp(-n / 2^(k+1)),
//
// independent of the dimension — the occupancy-lemma closed form. EstimateK
// returns the largest k keeping E(k) <= 1/2, i.e. the deepest grid that is
// still likely to satisfy grid property 3.
//
// Verification. Feasibility is exactly monotone in k: the dividing radii of
// a depth-k grid are Scale*2^((i-k)/d), so ring i of grid k and ring i+1 of
// grid k+1 are delimited by the same float64 radii, and the angular
// subdivisions nest exactly (the 2-D segment index doubles — scaling by a
// power of two is exact in float64 — and the 3-D/d-D indices are prefix
// walks of the same split sequence). A single pass therefore suffices:
// classify each point once at the deepest candidate resolution (its radial
// depth below the outer boundary, and its angular index in that depth's
// finest ring), then fold the per-depth occupancy bitmaps pairwise to read
// off the occupancy of every coarser grid at once. The estimate caps the
// resolution of that pass; if the verified answer hits the cap, the pass is
// re-run uncapped, so the result always equals the trial loop's.
//
// Forced depths. Feasibility being downward-closed, depth k is feasible
// exactly when the search capped at k returns k, so the same search checks
// a pinned depth.

// EstimateK returns the occupancy-lemma estimate of the feasible grid depth
// for n points: the largest k in [1, kMax] whose expected number of empty
// interior cells under uniform density, (2^k - 2) * exp(-n / 2^(k+1)), is
// at most 1/2. The estimate is dimension-independent (rings are
// equal-measure in every dimension) and is verified, not trusted, by the
// MaxFeasibleK*Analytic searches.
func EstimateK(n, kMax int) int {
	best := 1
	for k := 2; k <= kMax; k++ {
		empty := (math.Exp2(float64(k)) - 2) * math.Exp(-float64(n)*math.Exp2(-float64(k+1)))
		if empty > 0.5 {
			break // E(k) grows with k: deeper grids only get emptier
		}
		best = k
	}
	return best
}

// analyticCap bounds the verification pass's resolution: the estimate plus
// slack for point sets denser than uniform near the boundary. The cap only
// trades a rare second pass for memory, never the answer.
func analyticCap(n, kMax int) int {
	c := EstimateK(n, kMax) + 2
	if c > kMax {
		c = kMax
	}
	return c
}

// occBits is the verification pass's accumulator: one angular occupancy
// bitmap per radial depth, at the resolution that depth has in the deepest
// candidate grid (depth l is ring cap-l there, with 2^(cap-l) cells).
type occBits struct {
	cap  int
	bits [][]uint64 // bits[l], l in [1, cap-1]: 2^(cap-l) bits
}

func newOccBits(cap int) *occBits {
	b := &occBits{cap: cap, bits: make([][]uint64, cap)}
	for l := 1; l <= cap-1; l++ {
		b.bits[l] = make([]uint64, (1<<uint(cap-l)+63)/64)
	}
	return b
}

// mark records a point of the given radial depth at its finest-resolution
// angular index.
func (b *occBits) mark(depth, idx int) {
	b.bits[depth][idx>>6] |= 1 << uint(idx&63)
}

// maxFeasible folds the bitmaps and returns the largest k in [1, cap] whose
// interior rings are all fully occupied. Grid k's ring i holds the points of
// depth l = k-i, grouped 2^(cap-k) finest-resolution cells per grid cell, so
// ring i of grid k is full exactly when depth l's bitmap is full after
// cap-k pairwise OR folds.
func (b *occBits) maxFeasible() int {
	if b.cap <= 1 {
		return 1
	}
	// reach[l] = l + (deepest fold at which depth l is still full): grid k
	// needs every depth l in [1, k-1] full at resolution k-l, i.e.
	// reach[l] >= k.
	reach := make([]int, b.cap)
	for l := 1; l < b.cap; l++ {
		reach[l] = l + maxFullRes(b.bits[l], b.cap-l)
	}
	for k := b.cap; k > 1; k-- {
		feasible := true
		for l := 1; l < k; l++ {
			if reach[l] < k {
				feasible = false
				break
			}
		}
		if feasible {
			return k
		}
	}
	return 1
}

// maxFullRes returns the largest j <= res such that the bitmap of 2^res
// bits, OR-folded down to 2^j bits, is all ones — or -1 when even the
// single-bit fold is empty. Fullness is monotone downward: the OR of two
// full halves is full.
func maxFullRes(words []uint64, res int) int {
	cur := words
	for j := res; ; j-- {
		if allOnes(cur, 1<<uint(j)) {
			return j
		}
		if j == 0 {
			return -1
		}
		cur = foldPairsOr(cur, 1<<uint(j))
	}
}

// allOnes reports whether the first nbits bits of words are all set.
func allOnes(words []uint64, nbits int) bool {
	full, rem := nbits/64, nbits%64
	for w := 0; w < full; w++ {
		if words[w] != ^uint64(0) {
			return false
		}
	}
	if rem > 0 {
		mask := uint64(1)<<uint(rem) - 1
		if words[full]&mask != mask {
			return false
		}
	}
	return true
}

// foldPairsOr returns a fresh bitmap of nbits/2 bits where bit t is the OR
// of input bits 2t and 2t+1.
func foldPairsOr(words []uint64, nbits int) []uint64 {
	if nbits <= 64 {
		var out uint64
		w := words[0]
		for t := 0; t < nbits/2; t++ {
			if w&(3<<uint(2*t)) != 0 {
				out |= 1 << uint(t)
			}
		}
		return []uint64{out}
	}
	out := make([]uint64, (nbits/2+63)/64)
	for w := range out {
		out[w] = compactPairsOr(words[2*w]) | compactPairsOr(words[2*w+1])<<32
	}
	return out
}

// compactPairsOr ORs adjacent bit pairs of x and packs the 32 results into
// the low half of the return value (bit t = bit 2t | bit 2t+1).
func compactPairsOr(x uint64) uint64 {
	x = (x | x>>1) & 0x5555555555555555
	x = (x ^ x>>1) & 0x3333333333333333
	x = (x ^ x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x ^ x>>4) & 0x00ff00ff00ff00ff
	x = (x ^ x>>8) & 0x0000ffff0000ffff
	x = (x ^ x>>16) & 0x00000000ffffffff
	return x
}

// searchK is the estimate-verify-escalate loop of every analytic search
// over n points: mark(cap, b) classifies each point once in the depth-cap
// grid and marks every point of ring 1..cap-1 in b; the folded bitmaps give
// the deepest feasible depth, and an answer that hits the estimated cap
// re-runs the pass at kMax.
func searchK(n, kMax int, mark func(cap int, b *occBits)) int {
	if kMax < 1 {
		kMax = 1
	}
	for cap := analyticCap(n, kMax); ; cap = kMax {
		if cap <= 1 {
			return 1
		}
		b := newOccBits(cap)
		mark(cap, b)
		if k := b.maxFeasible(); k < cap || cap == kMax {
			return k
		}
	}
}

// MaxFeasibleKAnalytic returns the largest k in [1, kMax] for which every
// interior cell of the depth-k polar grid holds one of the points (k = 1,
// with no interior cells, always qualifies).
func MaxFeasibleKAnalytic(polars []geom.Polar, scale float64, kMax int) int {
	return searchK(len(polars), kMax, func(cap int, b *occBits) {
		ref := PolarGrid{K: cap, Scale: scale}
		for _, c := range polars {
			if ring := ref.RingOf(c.R); ring > 0 && ring < cap {
				b.mark(cap-ring, ref.SegIndexOf(ring, c.Theta))
			}
		}
	})
}

// MaxFeasibleKAnalyticSlots is MaxFeasibleKAnalytic over the subset
// pts[slots[0]], pts[slots[1]], ... without materializing it. The
// multi-group substrate keeps one polar array per source, shared read-only
// across every group built around that source; a group's membership is a
// slot list into that array, and gathering it into a dense slice per build
// would copy O(membership) coordinates on every rebuild of every group. It
// returns exactly what the dense search returns over the gathered slice —
// the differential tests lock that down — so swapping one for the other can
// never change a chosen depth or a built tree.
func MaxFeasibleKAnalyticSlots(pts []geom.Polar, slots []int32, scale float64, kMax int) int {
	return searchK(len(slots), kMax, func(cap int, b *occBits) {
		ref := PolarGrid{K: cap, Scale: scale}
		for _, sl := range slots {
			c := pts[sl]
			if ring := ref.RingOf(c.R); ring > 0 && ring < cap {
				b.mark(cap-ring, ref.SegIndexOf(ring, c.Theta))
			}
		}
	})
}

// MaxFeasibleK3Analytic is MaxFeasibleKAnalytic over the 3-D sphere grid.
func MaxFeasibleK3Analytic(sphericals []geom.Spherical, scale float64, kMax int) int {
	return searchK(len(sphericals), kMax, func(cap int, b *occBits) {
		ref := SphereGrid3{K: cap, Scale: scale}
		for _, c := range sphericals {
			if shell := ref.ShellOf(c.R); shell > 0 && shell < cap {
				b.mark(cap-shell, ref.SegIndexOf(shell, c.Theta, c.U))
			}
		}
	})
}

// MaxFeasibleKDAnalytic is MaxFeasibleKAnalytic over the d-dimensional
// grid, returning the grid itself. It materializes one grid, at the capped
// resolution; a shallower answer shares that grid's angular tables, which
// are identical for every depth (levels do not depend on K).
func MaxFeasibleKDAnalytic(d int, hs []geom.Hyperspherical, scale float64, kMax int) (*GridD, error) {
	if kMax > 28 {
		// Too deep to materialize: fail as constructing that grid does.
		return NewGridD(d, kMax, scale)
	}
	var ref *GridD
	var err error
	k := searchK(len(hs), kMax, func(cap int, b *occBits) {
		if ref, err = NewGridD(d, cap, scale); err != nil {
			return // nothing marked: the search stops, and err is returned below
		}
		for _, h := range hs {
			if shell := ref.ShellOf(h.R); shell > 0 && shell < cap {
				b.mark(cap-shell, ref.SegIndexOf(shell, h))
			}
		}
	})
	switch {
	case err != nil:
		return nil, err
	case ref == nil: // kMax <= 1: no pass ran
		return NewGridD(d, 1, scale)
	case k == ref.K:
		return ref, nil
	}
	return &GridD{D: d, K: k, Scale: scale, exp2: ref.exp2[:k+1], levels: ref.levels[:k+1]}, nil
}
