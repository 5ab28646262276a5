package bisect

import (
	"math"

	"omtree/internal/tree"
)

// Attacher is the sink receiving the tree edges a Bisection recursion
// produces. *tree.Builder implements it for serial builds; parallel builders
// substitute a shared parent array written lock-free from many cells.
//
// Concurrency contract: a recursion attaches every node of its idx slice
// exactly once and touches no memory beyond idx, the read-only coordinate
// table and the Attacher. Callers may therefore run fan-outs concurrently on
// disjoint index slices, provided the Attacher tolerates concurrent
// MustAttach calls for distinct children (tree.Builder does not — it keeps
// shared degree counters — so concurrent callers must bring their own sink).
type Attacher interface {
	// MustAttach wires child under parent, panicking when the edge is
	// structurally impossible (e.g. the child is already attached).
	MustAttach(child, parent int)
}

// The serial builder satisfies the sink contract.
var _ Attacher = (*tree.Builder)(nil)

// attachKary wires the nodes in idx under src as a balanced k-ary tree, in
// slice order. It is the fallback used when a segment can no longer be split
// at floating-point resolution (coincident or near-coincident points), where
// geometric recursion cannot make progress; a balanced tree keeps the
// out-degree at k and the depth logarithmic.
func attachKary(b Attacher, idx []int32, src int32, k int) {
	nodes := make([]int32, 0, len(idx)+1)
	nodes = append(nodes, src)
	for t, id := range idx {
		b.MustAttach(int(id), int(nodes[t/k]))
		nodes = append(nodes, id)
	}
}

// AttachKary exposes the balanced k-ary fallback for callers (package core)
// that hit the same degenerate all-coincident geometry.
func AttachKary(b Attacher, idx []int32, src int32, k int) {
	attachKary(b, idx, src, k)
}

// pickRep returns the position within idx of the representative: the point
// whose radius is closest to srcR, ties broken by smallest node id for
// determinism. idx must be non-empty.
func pickRep(idx []int32, radius func(int32) float64, srcR float64) int {
	best := 0
	bestD := math.Abs(radius(idx[0]) - srcR)
	for p := 1; p < len(idx); p++ {
		d := math.Abs(radius(idx[p]) - srcR)
		if d < bestD || (d == bestD && idx[p] < idx[best]) {
			best, bestD = p, d
		}
	}
	return best
}

// takeRep removes the representative (per pickRep) from idx by swapping it
// to the end and truncating, returning the representative id and the
// shortened slice.
func takeRep(idx []int32, radius func(int32) float64, srcR float64) (int32, []int32) {
	p := pickRep(idx, radius, srcR)
	rep := idx[p]
	last := len(idx) - 1
	idx[p] = idx[last]
	return rep, idx[:last]
}

// bucketRef locates one point inside a bucket list.
type bucketRef struct {
	bucket, pos int
}

// pickHelper returns the location of the point across all buckets whose
// radius is closest to srcR (ties by smallest node id). It returns
// (bucketRef{-1, -1}) when all buckets are empty.
func pickHelper(buckets [][]int32, radius func(int32) float64, srcR float64) bucketRef {
	best := bucketRef{-1, -1}
	bestD := math.Inf(1)
	var bestID int32
	for bi, bucket := range buckets {
		for p, id := range bucket {
			d := math.Abs(radius(id) - srcR)
			if d < bestD || (d == bestD && id < bestID) {
				best = bucketRef{bi, p}
				bestD, bestID = d, id
			}
		}
	}
	return best
}

// removeAt removes position pos from a bucket by swap-with-last.
func removeAt(bucket []int32, pos int) (int32, []int32) {
	id := bucket[pos]
	last := len(bucket) - 1
	bucket[pos] = bucket[last]
	return id, bucket[:last]
}

// countNonEmpty counts the occupied buckets.
func countNonEmpty(buckets [][]int32) int {
	var n int
	for _, bkt := range buckets {
		if len(bkt) > 0 {
			n++
		}
	}
	return n
}
