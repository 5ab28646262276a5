package core

import (
	"errors"
	"fmt"

	"omtree/internal/tree"
)

// ErrNonFinite reports a point the grid cannot place: a NaN or infinite
// source or receiver coordinate, a receiver whose distance from the source
// overflows float64, or a build whose scale lies outside [MinScale,
// MaxScale]. Builds, joins and substrates reject such points up front; a
// NaN radius would otherwise fall silently into ring 0 and out of every
// delay maximum, and past the scale range the build's comparisons tie and
// it silently returns another, worse tree. Match it with errors.Is.
var ErrNonFinite = errors.New("non-finite coordinate")

// MinScale and MaxScale bound the scale of a build: the distance of its
// farthest receiver from the source. Past them squared distances overflow
// to +Inf or sink into subnormals, so representative, relay and Bisection
// choices tie. Both are powers of two, so rescaling a build by a power of
// two inside the range is exact and keeps every parent.
const (
	MinScale = 0x1p-450
	MaxScale = 0x1p450
)

// CheckScale returns an error wrapping ErrNonFinite when a nonzero scale
// lies outside [MinScale, MaxScale]. Zero, the degenerate build with every
// receiver at the source, passes.
func CheckScale(scale float64) error {
	if scale != 0 && !(scale >= MinScale && scale <= MaxScale) {
		return fmt.Errorf("core: scale %g outside [2^-450, 2^450]: %w", scale, ErrNonFinite)
	}
	return nil
}

// Result is the outcome of a Polar_Grid build. Node 0 of the tree is the
// source; node i >= 1 is receivers[i-1] of the Build call.
type Result struct {
	Tree *tree.Tree

	// Dim is the Euclidean dimension of the build.
	Dim int
	// Variant records which wiring was used.
	Variant Variant
	// MaxOutDegree is the degree cap enforced during construction (6, 10,
	// 2^d+2 for the natural variant; 2 for the binary variant).
	MaxOutDegree int

	// K is the number of grid rings chosen (0 when the grid degenerated:
	// fewer than one receiver, or all receivers coincident with the source).
	K int
	// Scale is the grid's outer radius — the distance from the source to
	// the farthest receiver.
	Scale float64

	// Radius is the realized maximum sender-to-receiver delay (the paper's
	// "Delay" column).
	Radius float64
	// CoreDelay is the longest source-to-representative path (the paper's
	// "Core" column).
	CoreDelay float64
	// Bound is the paper's upper bound (7) evaluated at j = 0, with the arc
	// coefficient 2 for the natural variant and 4 for the binary variant
	// (the paper's "Bound" column). Zero when the grid degenerated.
	Bound float64
}
