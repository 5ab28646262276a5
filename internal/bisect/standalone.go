package bisect

import (
	"fmt"
	"math"

	"omtree/internal/geom"
	"omtree/internal/tree"
)

// originFactor controls how far away the covering segment's polar origin is
// placed, as a multiple of the point set's covering radius h. At distance
// 5h the segment satisfies the factor-5 preconditions with margin: the
// angular width a <= 2*atan(h/(5h-h)) ~ 0.49 < 0.97 (where sin a > 5a/6
// holds) and r/R >= (5h-h)/(5h+h) = 2/3 > 0.6.
const originFactor = 5

// Report carries the certificate quantities of a standalone Bisection
// build: the covering segment, its polar origin, the inequality (1)/(2)
// upper bound on every tree path, and a sound lower bound on the optimum
// (the largest direct source-to-point distance — no tree can beat a direct
// link).
type Report struct {
	Segment    geom.RingSegment
	OriginDist float64 // distance from the point cloud's center to the polar origin
	SourceR    float64 // the source's polar radius q
	PathBound  float64
	LowerBound float64
}

// PathBound4 evaluates inequality (1): the upper bound on any path of the
// out-degree-4 Bisection tree over segment seg with source radius q.
func PathBound4(seg geom.RingSegment, q float64) float64 {
	return math.Max(seg.RMax-q, q-seg.RMin) + 2*seg.RMax*seg.Angle()
}

// PathBound2 evaluates inequality (2): the out-degree-2 version, whose
// angular term doubles because two links are spent per level.
func PathBound2(seg geom.RingSegment, q float64) float64 {
	return math.Max(seg.RMax-q, q-seg.RMin) + 4*seg.RMax*seg.Angle()
}

// BuildTree runs the standalone 2-D Bisection over an arbitrary planar
// point set: it covers the points with a thin, nearly-flat ring segment
// whose polar origin lies far below the cloud, then runs the degree-4 (for
// maxOutDegree >= 4) or degree-2 (for maxOutDegree in {2, 3}) recursion.
// source indexes into points; maxOutDegree must be at least 2.
func BuildTree(points []geom.Point2, source, maxOutDegree int) (*tree.Tree, Report, error) {
	if maxOutDegree < 2 {
		return nil, Report{}, fmt.Errorf("bisect: out-degree %d < 2 cannot span arbitrary point sets", maxOutDegree)
	}
	n := len(points)
	if source < 0 || source >= n {
		return nil, Report{}, fmt.Errorf("bisect: source %d out of range [0, %d)", source, n)
	}
	b, err := tree.NewBuilder(n, source, maxOutDegree)
	if err != nil {
		return nil, Report{}, err
	}
	if n == 1 {
		t, err := b.Build()
		return t, Report{}, err
	}

	// Cover the cloud: center of the minimum enclosing circle, radius h.
	cover := geom.EnclosingCircle(points)
	center, h := cover.Center, cover.Radius

	idx := make([]int32, 0, n-1)
	for i := 0; i < n; i++ {
		if i != source {
			idx = append(idx, int32(i))
		}
	}

	if h == 0 {
		// All points coincide; geometry is useless and any balanced tree is
		// optimal (all edges are zero-length).
		AttachKary(b, idx, int32(source), maxOutDegree)
		t, err := b.Build()
		return t, Report{}, err
	}

	origin := geom.Point2{X: center.X, Y: center.Y - originFactor*h}
	polars := make([]geom.Polar, n)
	seg := geom.RingSegment{
		RMin: math.Inf(1), RMax: math.Inf(-1),
		ThetaMin: math.Inf(1), ThetaMax: math.Inf(-1),
	}
	var lower float64
	for i, p := range points {
		c := p.PolarAround(origin)
		polars[i] = c
		seg.RMin = math.Min(seg.RMin, c.R)
		seg.RMax = math.Max(seg.RMax, c.R)
		seg.ThetaMin = math.Min(seg.ThetaMin, c.Theta)
		seg.ThetaMax = math.Max(seg.ThetaMax, c.Theta)
		if d := p.Dist(points[source]); d > lower {
			lower = d
		}
	}

	ctx := &Ctx2{B: b, Pts: polars}
	rep := Report{
		Segment:    seg,
		OriginDist: originFactor * h,
		SourceR:    polars[source].R,
		LowerBound: lower,
	}
	if maxOutDegree >= 4 {
		ctx.Connect4(idx, int32(source), seg)
		rep.PathBound = PathBound4(seg, polars[source].R)
	} else {
		ctx.Connect2(idx, int32(source), seg)
		rep.PathBound = PathBound2(seg, polars[source].R)
	}
	t, err := b.Build()
	if err != nil {
		return nil, Report{}, err
	}
	return t, rep, nil
}
