package bisect

import (
	"math"

	"omtree/internal/geom"
)

// Ctx3 carries the shared state of a 3-D Bisection run: the spherical
// coordinates of every node and the attachment sink of the tree under
// construction. Like Ctx2, all scratch lives on the call stack, so disjoint
// index slices may run concurrently against a concurrency-tolerant Attacher.
type Ctx3 struct {
	B   Attacher
	Pts []geom.Spherical
}

// near ranks id against the local source src by radius: |R - R_src|.
func (c *Ctx3) near(id, src int32) float64 { return math.Abs(c.Pts[id].R - c.Pts[src].R) }

// octantBuckets partitions idx in place into the eight Octants of cell,
// returning contiguous sub-slices ordered like cell.Octants() (bit 2 =
// outer radial half, bit 1 = upper U half, bit 0 = upper theta half).
func (c *Ctx3) octantBuckets(idx []int32, cell geom.ShellCell) [8][]int32 {
	mr := (cell.RMin + cell.RMax) / 2
	mu := (cell.UMin + cell.UMax) / 2
	mt := (cell.ThetaMin + cell.ThetaMax) / 2

	rSplit := partition2(idx, func(id int32) bool { return c.Pts[id].R >= mr })
	var out [8][]int32
	halves := [2][]int32{idx[:rSplit], idx[rSplit:]}
	for h, half := range halves {
		uSplit := partition2(half, func(id int32) bool { return c.Pts[id].U >= mu })
		quarts := [2][]int32{half[:uSplit], half[uSplit:]}
		for u, quart := range quarts {
			tSplit := partition2(quart, func(id int32) bool { return c.Pts[id].Theta >= mt })
			out[4*h+2*u+0] = quart[:tSplit]
			out[4*h+2*u+1] = quart[tSplit:]
		}
	}
	return out
}

// Connect8 runs the natural out-degree-8 Bisection over the points idx
// inside cell, attaching everything under src (already attached). idx is
// clobbered. Together with the two core links of a cell representative this
// yields the paper's out-degree-10 3-D trees.
func (c *Ctx3) Connect8(idx []int32, src int32, cell geom.ShellCell) {
	c.connect8(idx, src, cell, 0)
}

func (c *Ctx3) connect8(idx []int32, src int32, cell geom.ShellCell, depth int) {
	if len(idx) <= 1 || cell.Degenerate() || depth > maxDepth {
		AttachKary(c.B, idx, src, 8)
		return
	}
	buckets := c.octantBuckets(idx, cell)
	octants := cell.Octants()
	for q, bucket := range buckets {
		if len(bucket) > 0 {
			rep, rest := takeRep(bucket, src, c.near)
			c.B.MustAttach(int(rep), int(src))
			if len(rest) > 0 {
				c.connect8(rest, rep, octants[q], depth+1)
			}
		}
	}
}

// Connect2 runs the out-degree-2 3-D Bisection: octant representatives are
// relayed through a binary helper tree (two levels for eight octants),
// generalizing the planar §IV-A construction. idx is clobbered.
func (c *Ctx3) Connect2(idx []int32, src int32, cell geom.ShellCell) {
	c.connect2(idx, src, cell, 0)
}

func (c *Ctx3) connect2(idx []int32, src int32, cell geom.ShellCell, depth int) {
	if len(idx) <= 2 || cell.Degenerate() || depth > maxDepth {
		AttachKary(c.B, idx, src, 2)
		return
	}
	buckets := c.octantBuckets(idx, cell)
	octants := cell.Octants()
	relay(c.B, buckets[:], 0, src, c.near, func(rest []int32, rep int32, q int) {
		c.connect2(rest, rep, octants[q], depth+1)
	})
}
