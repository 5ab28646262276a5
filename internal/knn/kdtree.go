// Package knn provides a 2-D k-d tree with dynamic activation — the
// nearest-neighbor substrate that scales the attachment heuristics past
// the O(n^2) wall. The tree is built once over all points; points start
// inactive and are switched on as the overlay attaches them, so "nearest
// attached node with spare degree" queries run in O(log n) expected time.
package knn

import (
	"fmt"
	"math"
	"sort"

	"omtree/internal/geom"
)

// Tree is a static-topology k-d tree over a fixed point set with per-point
// activation flags. The zero value is unusable; call New.
type Tree struct {
	pts    []geom.Point2
	idx    []int32 // point ids in k-d order
	active []bool  // by point id
	// nodes mirror idx: node i splits on axis depth%2 with subtree range
	// captured by the recursion; activeCount[i] counts active points in the
	// subtree rooted at heap position i, enabling pruning of dead subtrees.
	activeCount []int32
}

// New builds the tree over pts. All points start inactive.
func New(pts []geom.Point2) (*Tree, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("knn: no points")
	}
	t := &Tree{
		pts:         pts,
		idx:         make([]int32, len(pts)),
		active:      make([]bool, len(pts)),
		activeCount: make([]int32, len(pts)),
	}
	for i := range t.idx {
		t.idx[i] = int32(i)
	}
	t.build(0, len(t.idx), 0)
	return t, nil
}

// build arranges idx[lo:hi] so the median (by the splitting axis) sits at
// the midpoint, recursively.
func (t *Tree) build(lo, hi, depth int) {
	if hi-lo <= 1 {
		return
	}
	mid := (lo + hi) / 2
	axis := depth % 2
	seg := t.idx[lo:hi]
	sort.Slice(seg, func(a, b int) bool {
		pa, pb := t.pts[seg[a]], t.pts[seg[b]]
		if axis == 0 {
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			return seg[a] < seg[b]
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return seg[a] < seg[b]
	})
	t.build(lo, mid, depth+1)
	t.build(mid+1, hi, depth+1)
}

// Activate switches a point on. Idempotent.
func (t *Tree) Activate(id int) {
	if t.active[id] {
		return
	}
	t.active[id] = true
	t.bumpCounts(id)
}

// bumpCounts walks the recursion path that contains id and increments the
// active counters.
func (t *Tree) bumpCounts(id int) {
	lo, hi, depth := 0, len(t.idx), 0
	for {
		t.activeCount[(lo+hi)/2]++ // counter keyed by subtree midpoint
		if hi-lo <= 1 {
			return
		}
		mid := (lo + hi) / 2
		if t.idx[mid] == int32(id) {
			return
		}
		if t.onLeft(id, mid, depth) {
			hi = mid
		} else {
			lo = mid + 1
		}
		depth++
		if lo >= hi {
			return
		}
	}
}

// onLeft decides which side of the splitter at position mid the point id
// falls on, consistent with build's ordering (ties by id).
func (t *Tree) onLeft(id, mid, depth int) bool {
	p, s := t.pts[id], t.pts[t.idx[mid]]
	if depth%2 == 0 {
		if p.X != s.X {
			return p.X < s.X
		}
	} else {
		if p.Y != s.Y {
			return p.Y < s.Y
		}
	}
	return int32(id) < t.idx[mid]
}

// Nearest returns the active point nearest to q that satisfies accept (nil
// accepts all active points), or -1 when none qualifies. accept lets
// callers filter by residual degree without rebuilding the tree.
func (t *Tree) Nearest(q geom.Point2, accept func(id int) bool) int {
	best := -1
	bestD2 := math.Inf(1)
	t.search(q, 0, len(t.idx), 0, accept, &best, &bestD2)
	return best
}

func (t *Tree) search(q geom.Point2, lo, hi, depth int, accept func(id int) bool, best *int, bestD2 *float64) {
	if lo >= hi {
		return
	}
	mid := (lo + hi) / 2
	if t.activeCount[mid] == 0 {
		return // no active points anywhere in this subtree
	}
	id := t.idx[mid]
	if t.active[id] && (accept == nil || accept(int(id))) {
		if d2 := t.pts[id].Dist2(q); d2 < *bestD2 {
			*best, *bestD2 = int(id), d2
		}
	}
	if hi-lo == 1 {
		return
	}
	var delta float64
	if depth%2 == 0 {
		delta = q.X - t.pts[id].X
	} else {
		delta = q.Y - t.pts[id].Y
	}
	// Descend the near side first, then the far side only if the splitting
	// plane is closer than the best match.
	if delta < 0 {
		t.search(q, lo, mid, depth+1, accept, best, bestD2)
		if delta*delta < *bestD2 {
			t.search(q, mid+1, hi, depth+1, accept, best, bestD2)
		}
	} else {
		t.search(q, mid+1, hi, depth+1, accept, best, bestD2)
		if delta*delta < *bestD2 {
			t.search(q, lo, mid, depth+1, accept, best, bestD2)
		}
	}
}

// KNearest returns up to k active accepted points nearest q, closest
// first.
func (t *Tree) KNearest(q geom.Point2, k int, accept func(id int) bool) []int {
	if k <= 0 {
		return nil
	}
	h := &resultHeap{}
	t.searchK(q, 0, len(t.idx), 0, k, accept, h)
	out := make([]int, len(*h))
	// Heap pops worst-first; fill back to front.
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.pop().id
	}
	return out
}

func (t *Tree) searchK(q geom.Point2, lo, hi, depth, k int, accept func(id int) bool, h *resultHeap) {
	if lo >= hi {
		return
	}
	mid := (lo + hi) / 2
	if t.activeCount[mid] == 0 {
		return
	}
	id := t.idx[mid]
	if t.active[id] && (accept == nil || accept(int(id))) {
		h.offer(result{id: int(id), d2: t.pts[id].Dist2(q)}, k)
	}
	if hi-lo == 1 {
		return
	}
	var delta float64
	if depth%2 == 0 {
		delta = q.X - t.pts[id].X
	} else {
		delta = q.Y - t.pts[id].Y
	}
	near, farLo, farHi := [2]int{lo, mid}, mid+1, hi
	if delta >= 0 {
		near, farLo, farHi = [2]int{mid + 1, hi}, lo, mid
	}
	t.searchK(q, near[0], near[1], depth+1, k, accept, h)
	if len(*h) < k || delta*delta < h.worst() {
		t.searchK(q, farLo, farHi, depth+1, k, accept, h)
	}
}

// result is one candidate in the bounded max-heap.
type result struct {
	id int
	d2 float64
}

// resultHeap is a max-heap by distance, capped at k by offer.
type resultHeap []result

func (h resultHeap) worst() float64 { return h[0].d2 }

func (h *resultHeap) offer(r result, k int) {
	if len(*h) < k {
		*h = append(*h, r)
		h.up(len(*h) - 1)
		return
	}
	if r.d2 >= (*h)[0].d2 {
		return
	}
	(*h)[0] = r
	h.down(0)
}

func (h *resultHeap) pop() result {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h resultHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].d2 >= h[i].d2 {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h resultHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && h[l].d2 > h[largest].d2 {
			largest = l
		}
		if r < n && h[r].d2 > h[largest].d2 {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
