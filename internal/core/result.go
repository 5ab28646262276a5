package core

import (
	"errors"

	"omtree/internal/tree"
)

// ErrNonFinite reports a point the grid cannot place: a NaN or infinite
// source or receiver coordinate, or a receiver whose distance from the
// source overflows float64. Builds, joins and substrates reject such points
// up front; a NaN radius would otherwise fall silently into ring 0 and out
// of every delay maximum. Match it with errors.Is.
var ErrNonFinite = errors.New("non-finite coordinate")

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
