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

// subcellBuckets partitions idx into the 2^d Subcells of cell, ordered by
// the CellD subcell index convention.
func (c *CtxD) subcellBuckets(idx []int32, cell geom.CellD) [][]int32 {
	m := 1 << uint(cell.Dim())
	buckets := make([][]int32, m)
	for _, id := range idx {
		q := cell.SubcellIndex(c.Pts[id])
		buckets[q] = append(buckets[q], id)
	}
	return buckets
}

// ConnectFull runs the natural out-degree-2^d Bisection over the points idx
// inside cell, attaching everything under src (already attached). Together
// with the two core links of a representative this yields trees of
// out-degree 2^d + 2.
func (c *CtxD) ConnectFull(idx []int32, src int32, cell geom.CellD) {
	c.connectFull(idx, src, cell, 0)
}

func (c *CtxD) connectFull(idx []int32, src int32, cell geom.CellD, depth int) {
	if len(idx) <= 1 || cell.Degenerate() || depth > maxDepth {
		AttachKary(c.B, idx, src, 1<<uint(cell.Dim()))
		return
	}
	buckets := c.subcellBuckets(idx, cell)
	subcells := cell.Subcells()
	for q, bucket := range buckets {
		if len(bucket) > 0 {
			rep, rest := takeRep(bucket, src, c.near)
			c.B.MustAttach(int(rep), int(src))
			if len(rest) > 0 {
				c.connectFull(rest, rep, subcells[q], depth+1)
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
	if len(idx) <= 2 || cell.Degenerate() || depth > maxDepth {
		AttachKary(c.B, idx, src, 2)
		return
	}
	buckets := c.subcellBuckets(idx, cell)
	subcells := cell.Subcells()
	relay(c.B, buckets, 0, src, c.near, func(rest []int32, rep int32, q int) {
		c.connect2(rest, rep, subcells[q], depth+1)
	})
}
