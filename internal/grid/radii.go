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

// ringOf is the lookup behind RingOf and both ShellOfs: the ring of a
// depth-k grid holding radius r, where ring i's outer radius is
// scale * pow[k-i] and consecutive radii grow by 2^(1/d). That is the
// smallest i with r <= scale * pow[k-i], clamped to [0, k]; NaN lands in
// ring 0.
//
// r/scale = f * 2^e with f in [1/2, 1), so the ring
// ceil(k + d*log2(r/scale)) lies in [k + d*e - d, k + d*e]. The search
// starts from the top of that range, clamped to [0, k], at most d steps
// above the answer; the guard loops compare r with the exact dividing
// radii, so they, not the guess, decide the ring.
func ringOf(r, scale float64, k, d int, pow []float64) int {
	if !(r > 0) {
		return 0
	}
	if r >= scale {
		return k
	}
	_, e := math.Frexp(r / scale)
	i := min(max(k+d*e, 0), k)
	for i > 0 && r <= scale*pow[k-i+1] {
		i--
	}
	for i < k && r > scale*pow[k-i] {
		i++
	}
	return i
}
