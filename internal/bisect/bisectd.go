package bisect

import (
	"math"

	"omtree/internal/geom"
)

// CtxD carries the shared state of a d-dimensional Bisection run: the
// hyperspherical coordinates of every node and the attachment sink of the
// tree under construction. Bucket slices are allocated per call (never stored
// on the context), so disjoint index slices may run concurrently against a
// concurrency-tolerant Attacher.
type CtxD struct {
	B   Attacher
	Pts []geom.Hyperspherical
}

// near ranks id against the local source src by radius: |R - R_src|.
func (c *CtxD) near(id, src int32) float64 { return math.Abs(c.Pts[id].R - c.Pts[src].R) }

// subcellBuckets partitions idx into the 2^d sub-cells of the step that
// cuts a cell at cuts, ordered by the CellD sub-cell index convention.
func (c *CtxD) subcellBuckets(idx []int32, cuts []float64) [][]int32 {
	buckets := make([][]int32, 1<<uint(len(cuts)))
	for _, id := range idx {
		q := geom.SubcellOf(c.Pts[id], cuts)
		buckets[q] = append(buckets[q], id)
	}
	return buckets
}

// cutsFor returns where a recursion step over idx cuts cell, or nil when
// the step is a leaf: idx holds at most leaf points, depth is past
// maxDepth, or the cell can no longer be split. The cuts are computed once
// per step, after the size check, and serve the bucketing, the sub-cells
// and the degeneracy test.
func cutsFor(idx []int32, leaf int, cell geom.CellD, depth int) []float64 {
	if len(idx) <= leaf || depth > maxDepth {
		return nil
	}
	if cuts := cell.Cuts(); !cell.Degenerate(cuts) {
		return cuts
	}
	return nil
}

// ConnectFull runs the natural out-degree-2^d Bisection over the points idx
// inside cell, attaching everything under src (already attached). Together
// with the two core links of a representative this yields trees of
// out-degree 2^d + 2.
func (c *CtxD) ConnectFull(idx []int32, src int32, cell geom.CellD) {
	c.connectFull(idx, src, cell, 0)
}

func (c *CtxD) connectFull(idx []int32, src int32, cell geom.CellD, depth int) {
	cuts := cutsFor(idx, 1, cell, depth)
	if cuts == nil {
		AttachKary(c.B, idx, src, 1<<uint(cell.Dim()))
		return
	}
	for q, bucket := range c.subcellBuckets(idx, cuts) {
		if len(bucket) > 0 {
			rep, rest := takeRep(bucket, src, c.near)
			c.B.MustAttach(int(rep), int(src))
			if len(rest) > 0 {
				c.connectFull(rest, rep, cell.Subcell(cuts, q), depth+1)
			}
		}
	}
}

// Connect2 runs the out-degree-2 d-dimensional Bisection, relaying the 2^d
// sub-cell representatives through a binary helper tree of depth d-1.
func (c *CtxD) Connect2(idx []int32, src int32, cell geom.CellD) {
	c.connect2(idx, src, cell, 0)
}

func (c *CtxD) connect2(idx []int32, src int32, cell geom.CellD, depth int) {
	cuts := cutsFor(idx, 2, cell, depth)
	if cuts == nil {
		AttachKary(c.B, idx, src, 2)
		return
	}
	relay(c.B, c.subcellBuckets(idx, cuts), 0, src, c.near, func(rest []int32, rep int32, q int) {
		c.connect2(rest, rep, cell.Subcell(cuts, q), depth+1)
	})
}
