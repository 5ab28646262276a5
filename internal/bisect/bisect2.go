package bisect

import (
	"math"

	"omtree/internal/geom"
)

// maxDepth caps geometric recursion. Every cell shape splits each axis
// strictly inside its interval per level, or tests Degenerate once no axis
// would shrink, so float64 resolution is exhausted (and Degenerate fires)
// long before this.
const maxDepth = 4096

// partition2 reorders idx so that elements with pred false come first,
// returning the boundary. Order within halves is not preserved, but it is
// fixed: element j swaps with the boundary i exactly when !pred(idx[j]), as
// in the textbook one-pass loop. The slice order that results is a contract,
// because AttachKary wires the coincident points it falls back on in slice
// order.
//
// The loop is branch-free on the predicate. A grid cell's points fall on
// either side of a split at random, so a branch on pred mispredicts about
// half the time; instead keep is 0 or 1, the swap goes through the mask
// -keep (all ones or zero), and the boundary advances by keep.
func partition2(idx []int32, pred func(int32) bool) int {
	i := 0
	for j, id := range idx {
		keep := b2i(!pred(id))
		x := (idx[i] ^ id) & -int32(keep)
		idx[j] ^= x
		idx[i] ^= x
		i += keep
	}
	return i
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag move,
// without a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Ctx2 carries the shared state of a 2-D Bisection run: the polar
// coordinates of every node (indexed by node id) and the attachment sink of
// the tree under construction. One Ctx2 may be reused across many cells of a
// grid; the fan-outs keep all scratch on the call stack (partitioning happens
// in place inside the caller's idx slice), so a single Ctx2 may also run
// concurrently on disjoint index slices when B tolerates concurrent attaches
// for distinct children (see Attacher).
type Ctx2 struct {
	B   Attacher
	Pts []geom.Polar
}

// near ranks id against the local source src by radius: |R - R_src|.
func (c *Ctx2) near(id, src int32) float64 { return math.Abs(c.Pts[id].R - c.Pts[src].R) }

// quarterBuckets partitions idx in place into the four Quarters of seg,
// returning contiguous sub-slices ordered like seg.Quarters().
func (c *Ctx2) quarterBuckets(idx []int32, seg geom.RingSegment) [4][]int32 {
	mr, mt := seg.MidR(), seg.MidTheta()
	outer := partition2(idx, func(id int32) bool { return c.Pts[id].R >= mr })
	hiIn := partition2(idx[:outer], func(id int32) bool { return c.Pts[id].Theta >= mt })
	hiOut := outer + partition2(idx[outer:], func(id int32) bool { return c.Pts[id].Theta >= mt })
	return [4][]int32{idx[:hiIn], idx[hiIn:outer], idx[outer:hiOut], idx[hiOut:]}
}

// Connect4 runs the out-degree-4 Bisection over the points idx (node ids,
// excluding src) inside segment seg, attaching everything under src. src
// must already be attached in the builder. idx is clobbered.
func (c *Ctx2) Connect4(idx []int32, src int32, seg geom.RingSegment) {
	c.connect4(idx, src, seg, 0)
}

func (c *Ctx2) connect4(idx []int32, src int32, seg geom.RingSegment, depth int) {
	if len(idx) <= 1 || seg.Degenerate() || depth > maxDepth {
		AttachKary(c.B, idx, src, 4)
		return
	}
	buckets := c.quarterBuckets(idx, seg)
	quarters := seg.Quarters()
	for q, bucket := range buckets {
		if len(bucket) > 0 {
			rep, rest := takeRep(bucket, src, c.near)
			c.B.MustAttach(int(rep), int(src))
			if len(rest) > 0 {
				c.connect4(rest, rep, quarters[q], depth+1)
			}
		}
	}
}

// Connect2 runs the out-degree-2 Bisection (§II, final paragraph) over the
// points idx inside segment seg, attaching everything under src. src must
// already be attached. idx is clobbered.
func (c *Ctx2) Connect2(idx []int32, src int32, seg geom.RingSegment) {
	c.connect2(idx, src, seg, 0)
}

func (c *Ctx2) connect2(idx []int32, src int32, seg geom.RingSegment, depth int) {
	if len(idx) <= 2 || seg.Degenerate() || depth > maxDepth {
		AttachKary(c.B, idx, src, 2)
		return
	}
	buckets := c.quarterBuckets(idx, seg)
	quarters := seg.Quarters()
	relay(c.B, buckets[:], 0, src, c.near, func(rest []int32, rep int32, q int) {
		c.connect2(rest, rep, quarters[q], depth+1)
	})
}
