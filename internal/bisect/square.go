package bisect

import (
	"fmt"
	"math"

	"omtree/internal/geom"
	"omtree/internal/tree"
)

// Square is an axis-aligned square cell, the domain of the quadtree version
// of the Bisection algorithm ("it is easier to describe a version of the
// algorithm for a square", §II). It is both a pedagogical reference and an
// independent constant-factor construction to compare the polar version
// against.
type Square struct {
	MinX, MinY float64
	Side       float64
}

// Contains reports whether p lies in the square (boundaries inclusive).
func (s Square) Contains(p geom.Point2) bool {
	return p.X >= s.MinX && p.X <= s.MinX+s.Side &&
		p.Y >= s.MinY && p.Y <= s.MinY+s.Side
}

// Quadrants splits the square into its four half-side children. Index bits:
// bit 0 = right half, bit 1 = upper half.
func (s Square) Quadrants() [4]Square {
	h := s.Side / 2
	return [4]Square{
		{MinX: s.MinX, MinY: s.MinY, Side: h},
		{MinX: s.MinX + h, MinY: s.MinY, Side: h},
		{MinX: s.MinX, MinY: s.MinY + h, Side: h},
		{MinX: s.MinX + h, MinY: s.MinY + h, Side: h},
	}
}

// Degenerate reports whether the square can no longer split at
// floating-point resolution.
func (s Square) Degenerate() bool {
	h := s.Side / 2
	return !(s.MinX+h > s.MinX && s.MinY+h > s.MinY)
}

// Diag returns the square's diagonal, the distance bound for any hop inside
// it.
func (s Square) Diag() float64 { return s.Side * math.Sqrt2 }

// SquareCtx carries the shared state of a quadtree Bisection run. The same
// per-call-scratch concurrency contract as Ctx2 applies.
type SquareCtx struct {
	B   Attacher
	Pts []geom.Point2
}

// near ranks id against the local source src by squared distance.
func (c *SquareCtx) near(id, src int32) float64 { return c.Pts[id].Dist2(c.Pts[src]) }

// quadrantBuckets partitions idx in place into the four Quadrants.
func (c *SquareCtx) quadrantBuckets(idx []int32, sq Square) [4][]int32 {
	mx := sq.MinX + sq.Side/2
	my := sq.MinY + sq.Side/2
	upper := partition2(idx, func(id int32) bool { return c.Pts[id].Y >= my })
	rightLo := partition2(idx[:upper], func(id int32) bool { return c.Pts[id].X >= mx })
	rightHi := upper + partition2(idx[upper:], func(id int32) bool { return c.Pts[id].X >= mx })
	return [4][]int32{idx[:rightLo], idx[rightLo:upper], idx[upper:rightHi], idx[rightHi:]}
}

// Connect4 runs the out-degree-4 quadtree Bisection: the representative of
// each non-empty quadrant (the point nearest the local source) attaches to
// the source and recurses. Every hop is bounded by the current square's
// diagonal, which halves per level, so any path is at most 2 * Diag of the
// covering square.
func (c *SquareCtx) Connect4(idx []int32, src int32, sq Square) {
	c.connect4(idx, src, sq, 0)
}

func (c *SquareCtx) connect4(idx []int32, src int32, sq Square, depth int) {
	if len(idx) <= 1 || sq.Degenerate() || depth > maxDepth {
		AttachKary(c.B, idx, src, 4)
		return
	}
	buckets := c.quadrantBuckets(idx, sq)
	quadrants := sq.Quadrants()
	for q, bucket := range buckets {
		if len(bucket) > 0 {
			rep, rest := takeRep(bucket, src, c.near)
			c.B.MustAttach(int(rep), int(src))
			if len(rest) > 0 {
				c.connect4(rest, rep, quadrants[q], depth+1)
			}
		}
	}
}

// Connect2 is the out-degree-2 quadtree variant: two helper points (nearest
// the source) each relay two quadrants, doubling the per-level hop budget.
func (c *SquareCtx) Connect2(idx []int32, src int32, sq Square) {
	c.connect2(idx, src, sq, 0)
}

func (c *SquareCtx) connect2(idx []int32, src int32, sq Square, depth int) {
	if len(idx) <= 2 || sq.Degenerate() || depth > maxDepth {
		AttachKary(c.B, idx, src, 2)
		return
	}
	buckets := c.quadrantBuckets(idx, sq)
	quadrants := sq.Quadrants()
	relay(c.B, buckets[:], 0, src, c.near, func(rest []int32, rep int32, q int) {
		c.connect2(rest, rep, quadrants[q], depth+1)
	})
}

// SquareReport certifies a standalone quadtree build.
type SquareReport struct {
	Cover      Square
	PathBound  float64
	LowerBound float64
}

// BuildTreeSquare is the standalone quadtree Bisection over an arbitrary
// planar point set: cover with the bounding square, recurse. maxOutDegree
// >= 4 runs the natural quadtree; {2, 3} the binary relay variant.
func BuildTreeSquare(points []geom.Point2, source, maxOutDegree int) (*tree.Tree, SquareReport, error) {
	if maxOutDegree < 2 {
		return nil, SquareReport{}, fmt.Errorf("bisect: out-degree %d < 2 cannot span arbitrary point sets", maxOutDegree)
	}
	n := len(points)
	if source < 0 || source >= n {
		return nil, SquareReport{}, fmt.Errorf("bisect: source %d out of range [0, %d)", source, n)
	}
	b, err := tree.NewBuilder(n, source, maxOutDegree)
	if err != nil {
		return nil, SquareReport{}, err
	}
	if n == 1 {
		t, err := b.Build()
		return t, SquareReport{}, err
	}

	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	var lower float64
	for _, p := range points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		if d := p.Dist(points[source]); d > lower {
			lower = d
		}
	}
	side := math.Max(maxX-minX, maxY-minY)
	cover := Square{MinX: minX, MinY: minY, Side: side}

	idx := make([]int32, 0, n-1)
	for i := 0; i < n; i++ {
		if i != source {
			idx = append(idx, int32(i))
		}
	}
	if side == 0 {
		AttachKary(b, idx, int32(source), maxOutDegree)
		t, err := b.Build()
		return t, SquareReport{Cover: cover}, err
	}

	ctx := &SquareCtx{B: b, Pts: points}
	rep := SquareReport{Cover: cover, LowerBound: lower}
	if maxOutDegree >= 4 {
		ctx.Connect4(idx, int32(source), cover)
		rep.PathBound = 2 * cover.Diag()
	} else {
		ctx.Connect2(idx, int32(source), cover)
		rep.PathBound = 4 * cover.Diag()
	}
	t, err := b.Build()
	if err != nil {
		return nil, SquareReport{}, err
	}
	return t, rep, nil
}
