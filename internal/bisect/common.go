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

// AttachKary wires the nodes in idx under src as a balanced k-ary tree in
// slice order: idx[t] hangs under src for t < k and under idx[t/k-1]
// otherwise. It is every recursion's leaf rule. Its usual input is the one
// or two points left at the bottom of a recursion, which all attach to
// src; a longer idx reaches it only when a cell can no longer be split
// at floating-point resolution (coincident or near-coincident points),
// where geometric recursion cannot make progress and a balanced tree keeps
// the out-degree at k and the depth logarithmic. It allocates nothing.
// Package core uses it for the same all-coincident case.
func AttachKary(b Attacher, idx []int32, src int32, k int) {
	for t, id := range idx {
		parent := src
		if t >= k {
			parent = idx[t/k-1]
		}
		b.MustAttach(int(id), int(parent))
	}
}

// nearFunc ranks point id against the local source src; smaller is nearer.
// Each shape supplies its own: |R - R_src| for the polar shapes, the
// squared distance for the square.
type nearFunc func(id, src int32) float64

// takeRep removes the representative from idx, the point nearest src (ties
// by smallest id), by swapping it with the last element and truncating. It
// returns the representative and the shortened slice. idx must be
// non-empty.
func takeRep(idx []int32, src int32, near nearFunc) (int32, []int32) {
	best := 0
	bestD := near(idx[0], src)
	for p := 1; p < len(idx); p++ {
		d := near(idx[p], src)
		if d < bestD || (d == bestD && idx[p] < idx[best]) {
			best, bestD = p, d
		}
	}
	rep := idx[best]
	last := len(idx) - 1
	idx[best] = idx[last]
	return rep, idx[:last]
}

// takeHelper removes and returns the point nearest src across all buckets
// (ties by smallest id), swapping it with the last element of its bucket.
func takeHelper(buckets [][]int32, src int32, near nearFunc) int32 {
	bi, pos := -1, -1
	bestD := math.Inf(1)
	var bestID int32
	for b, bucket := range buckets {
		for p, id := range bucket {
			d := near(id, src)
			if d < bestD || (d == bestD && id < bestID) {
				bi, pos, bestD, bestID = b, p, d, id
			}
		}
	}
	bucket := buckets[bi]
	last := len(bucket) - 1
	bucket[pos] = bucket[last]
	buckets[bi] = bucket[:last]
	return bestID
}

// relay connects the representatives of buckets under src with out-degree
// 2 (§IV-A): if at most two buckets are occupied their representatives
// attach directly and recurse; otherwise the two points nearest src become
// helpers, each relaying half of the bucket list. recurse receives each
// bucket's rest if it is not empty, the bucket's representative and the
// bucket's index, counted from base.
func relay(b Attacher, buckets [][]int32, base int, src int32, near nearFunc,
	recurse func(rest []int32, rep int32, bucket int)) {
	if countNonEmpty(buckets) <= 2 {
		for bi, bucket := range buckets {
			if len(bucket) == 0 {
				continue
			}
			rep, rest := takeRep(bucket, src, near)
			b.MustAttach(int(rep), int(src))
			if len(rest) > 0 {
				recurse(rest, rep, base+bi)
			}
		}
		return
	}
	// Three or more occupied buckets imply at least three points, so both
	// helpers exist.
	h1 := takeHelper(buckets, src, near)
	h2 := takeHelper(buckets, src, near)
	b.MustAttach(int(h1), int(src))
	b.MustAttach(int(h2), int(src))
	mid := len(buckets) / 2
	relay(b, buckets[:mid], base, h1, near, recurse)
	relay(b, buckets[mid:], base+mid, h2, near, recurse)
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
