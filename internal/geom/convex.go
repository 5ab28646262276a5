package geom

import "math"

// Circle is a circle in the plane.
type Circle struct {
	Center Point2
	Radius float64
}

// Contains reports whether p is inside or on the circle, with a small
// relative tolerance for floating-point robustness.
func (c Circle) Contains(p Point2) bool {
	return c.Center.Dist(p) <= c.Radius*(1+1e-12)+1e-300
}

// EnclosingCircle returns the smallest circle containing all points (Welzl's
// algorithm, iterative move-to-front variant over the given order; the order
// dependence only affects running time, not the result).
func EnclosingCircle(pts []Point2) Circle {
	switch len(pts) {
	case 0:
		return Circle{}
	case 1:
		return Circle{Center: pts[0]}
	}
	c := circleFrom2(pts[0], pts[1])
	for i := 2; i < len(pts); i++ {
		if c.Contains(pts[i]) {
			continue
		}
		// pts[i] is on the boundary of the new circle.
		c = circleFrom2(pts[0], pts[i])
		for j := 1; j < i; j++ {
			if c.Contains(pts[j]) {
				continue
			}
			c = circleFrom2(pts[i], pts[j])
			for k := 0; k < j; k++ {
				if !c.Contains(pts[k]) {
					c = circleFrom3(pts[i], pts[j], pts[k])
				}
			}
		}
	}
	return c
}

func circleFrom2(a, b Point2) Circle {
	center := Point2{(a.X + b.X) / 2, (a.Y + b.Y) / 2}
	return Circle{Center: center, Radius: center.Dist(a)}
}

func circleFrom3(a, b, c Point2) Circle {
	// Circumcircle via perpendicular bisector intersection. The formula
	// multiplies three coordinate differences, which overflows past about
	// 2^341 and underflows below about 2^-341, so it runs on the
	// differences scaled by a power of two to unit size: that rescaling is
	// exact, and so is scaling the centre offset back.
	ax, ay := b.X-a.X, b.Y-a.Y
	bx, by := c.X-a.X, c.Y-a.Y
	_, e := math.Frexp(max(math.Abs(ax), math.Abs(ay), math.Abs(bx), math.Abs(by)))
	ax, ay = math.Ldexp(ax, -e), math.Ldexp(ay, -e)
	bx, by = math.Ldexp(bx, -e), math.Ldexp(by, -e)
	d := 2 * (ax*by - ay*bx)
	if d == 0 {
		// Collinear: fall back to the diameter of the farthest pair.
		best := circleFrom2(a, b)
		if alt := circleFrom2(a, c); alt.Radius > best.Radius {
			best = alt
		}
		if alt := circleFrom2(b, c); alt.Radius > best.Radius {
			best = alt
		}
		return best
	}
	ux := (by*(ax*ax+ay*ay) - ay*(bx*bx+by*by)) / d
	uy := (ax*(bx*bx+by*by) - bx*(ax*ax+ay*ay)) / d
	center := Point2{a.X + math.Ldexp(ux, e), a.Y + math.Ldexp(uy, e)}
	r := center.Dist(a)
	if r2 := center.Dist(b); r2 > r {
		r = r2
	}
	if r3 := center.Dist(c); r3 > r {
		r = r3
	}
	return Circle{Center: center, Radius: r}
}

// FarthestFrom returns the index of the point farthest from origin, and that
// distance. It returns (-1, 0) for an empty slice.
func FarthestFrom(origin Point2, pts []Point2) (int, float64) {
	best, bestD2 := -1, -1.0
	for i, p := range pts {
		if d2 := origin.Dist2(p); d2 > bestD2 {
			best, bestD2 = i, d2
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, math.Sqrt(bestD2)
}
