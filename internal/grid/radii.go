package grid

import (
	"math"
	"math/bits"
)

// MaxK is the deepest grid the grid types accept: a depth-K grid has
// 2^(K+1) - 1 cells, and this is the largest K whose cell ids fit in an int.
const MaxK = bits.UintSize - 2

// exp2Half[j] = 2^(-j/2) and exp2Third[j] = 2^(-j/3) for j in [0, MaxK]:
// the dividing radii of the 2-D and 3-D grids relative to Scale (circle i
// of a depth-K grid has radius Scale * exp2Half[K-i]). Each entry is
// math.Exp2 of the very argument the radius formula hands it, so a lookup
// returns the bits the call would; the tables only skip the call.
var exp2Half, exp2Third = exp2Powers(2, MaxK), exp2Powers(3, MaxK)

// exp2Powers returns 2^(-j/d) for j in [0, maxJ].
func exp2Powers(d, maxJ int) []float64 {
	t := make([]float64, maxJ+1)
	for j := range t {
		t[j] = math.Exp2(float64(-j) / float64(d))
	}
	return t
}

// firstGuess returns a starting ring for the guard loops that classify a
// radius r with 0 < r < scale in a depth-k grid whose dividing radii grow
// by 2^(1/d): r/scale = f * 2^e with f in [1/2, 1), so the ring
// ceil(k + d*log2(r/scale)) lies in [k + d*e - d, k + d*e]. The top of that
// range, clamped to [0, k], is at most d steps above the answer; the guard
// loops, not this guess, decide the ring.
func firstGuess(r, scale float64, k, d int) int {
	_, e := math.Frexp(r / scale)
	i := k + d*e
	if i < 0 {
		return 0
	}
	if i > k {
		return k
	}
	return i
}
