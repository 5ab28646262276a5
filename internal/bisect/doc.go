// Package bisect implements the paper's Bisection algorithm (§II): a
// constant-factor approximation for the degree-constrained minimum-radius
// spanning tree of points lying in a ring segment. The segment is split
// recursively by its mid-radius arc and mid-angle ray into four
// sub-segments; each non-empty sub-segment contributes a representative
// (the point whose polar radius is closest to the source's), which attaches
// to the source and becomes the local source of the recursion.
//
// There is one recursion, run on four cell shapes: the 2-D ring segment
// (Ctx2), the 3-D shell cell (Ctx3), the d-dimensional cell (CtxD) and the
// square (SquareCtx). A shape supplies three things: its split of a cell's
// points into 2^d sub-cell buckets; its near(id, src), which ranks a point
// against the local source (|R - R_src| for the polar shapes, the squared
// distance for the square); and its pair of Connect recursions, the natural
// one with out-degree 2^d and the out-degree-2 one. The rest is shared:
// takeRep picks each bucket's representative and takeHelper the
// out-degree-2 helpers, both by near with ties to the smallest id, and relay
// runs the two-helper relay of §IV-A.
//
// The leaf rule is the same everywhere. A recursion step with at most one
// point (natural) or two points (out-degree 2), a cell that can no longer
// split at floating-point resolution, or a depth past maxDepth hands its
// points to AttachKary, which attaches up to k of them straight to the
// source and more as a balanced k-ary tree in slice order. A fan-out does
// not recurse into a bucket its representative emptied.
//
// Variants:
//
//   - Connect4: the natural out-degree-4 version (approximation factor 5,
//     Theorem 1). Paths move monotonically in radius, and the angular detour
//     per level is bounded by the shrinking segment angle, giving the path
//     bound max(R-q, q-r) + 2*R*a of inequality (1).
//   - Connect2: the out-degree-2 version (factor 9) — the source first
//     attaches the two points with radius closest to its own, and each of
//     those relays two of the four sub-segments; the angular term doubles
//     (inequality (2)).
//   - Ctx3.Connect8 / Ctx3.Connect2 (3-D) and CtxD.ConnectFull /
//     CtxD.Connect2 (general d): the same pair on 2^d sub-cells, the
//     out-degree-2 one relaying through a binary helper tree. Package core
//     runs them inside each grid cell.
//
// The standalone entry point BuildTree covers an arbitrary planar point set
// with a thin, nearly-flat ring segment whose polar origin is placed far
// away — far enough that sin(a) > (5/6)a and r > 0.6R, the preconditions
// of the factor-5 proof. BuildTreeSquare is the square-cell variant.
//
// Every split of a 2-D quarter, a 3-D octant or a square quadrant goes
// through partition2, a one-pass in-place partition that is branch-free on
// its predicate (a split's outcome is a coin toss per point, which a branch
// predictor cannot learn). It makes exactly the swaps of the textbook
// branchy loop, so the slice order each split leaves is fixed; CtxD's
// buckets instead keep the order their points arrive in. That order, and
// the swap with the last element by which takeRep and takeHelper remove
// their pick, are part of the output contract: AttachKary wires in slice
// order, which on coincident points decides which hangs under which.
//
// The package attaches nodes into a tree.Builder so that the degree caps
// are machine-checked during construction.
package bisect
