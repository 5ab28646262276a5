package geom

import (
	"fmt"
	"math"
)

// Point2 is a point in the Euclidean plane.
type Point2 struct {
	X, Y float64
}

// Add returns p + q componentwise.
func (p Point2) Add(q Point2) Point2 { return Point2{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point2) Sub(q Point2) Point2 { return Point2{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point2) Scale(s float64) Point2 { return Point2{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q.
func (p Point2) Dot(q Point2) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean norm of p.
func (p Point2) Norm() float64 { return math.Hypot(p.X, p.Y) }

// IsFinite reports whether both coordinates are finite numbers.
func (p Point2) IsFinite() bool { return isFinite(p.X) && isFinite(p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point2) Dist(q Point2) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point2) Dist2(q Point2) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point2) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Point3 is a point in three-dimensional Euclidean space.
type Point3 struct {
	X, Y, Z float64
}

// Add returns p + q componentwise.
func (p Point3) Add(q Point3) Point3 { return Point3{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q componentwise.
func (p Point3) Sub(q Point3) Point3 { return Point3{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns p scaled by s.
func (p Point3) Scale(s float64) Point3 { return Point3{p.X * s, p.Y * s, p.Z * s} }

// Dot returns the dot product of p and q.
func (p Point3) Dot(q Point3) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Norm returns the Euclidean norm of p.
func (p Point3) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z) }

// IsFinite reports whether all three coordinates are finite numbers.
func (p Point3) IsFinite() bool { return isFinite(p.X) && isFinite(p.Y) && isFinite(p.Z) }

// Dist returns the Euclidean distance between p and q.
func (p Point3) Dist(q Point3) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point3) Dist2(q Point3) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return dx*dx + dy*dy + dz*dz
}

// String implements fmt.Stringer.
func (p Point3) String() string { return fmt.Sprintf("(%g, %g, %g)", p.X, p.Y, p.Z) }

// Vec is a point (or vector) in d-dimensional Euclidean space, where
// d == len(v). The zero-length vector is valid and represents the single
// point of 0-dimensional space.
type Vec []float64

// NewVec returns a zero vector of dimension d.
func NewVec(d int) Vec { return make(Vec, d) }

// Clone returns a copy of v that shares no storage with it.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Add returns v + w. It panics if dimensions differ.
func (v Vec) Add(w Vec) Vec {
	mustSameDim(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w. It panics if dimensions differ.
func (v Vec) Sub(w Vec) Vec {
	mustSameDim(len(v), len(w))
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] * s
	}
	return out
}

// Dot returns the dot product of v and w. It panics if dimensions differ.
func (v Vec) Dot(w Vec) float64 {
	mustSameDim(len(v), len(w))
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// IsFinite reports whether every coordinate is a finite number.
func (v Vec) IsFinite() bool {
	for _, x := range v {
		if !isFinite(x) {
			return false
		}
	}
	return true
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance between v and w. It panics if
// dimensions differ.
func (v Vec) Dist(w Vec) float64 {
	mustSameDim(len(v), len(w))
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Dist2 returns the squared Euclidean distance between v and w. It panics if
// dimensions differ.
func (v Vec) Dist2(w Vec) float64 {
	mustSameDim(len(v), len(w))
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s
}

// Vec converts a Point2 to a Vec.
func (p Point2) Vec() Vec { return Vec{p.X, p.Y} }

// Vec converts a Point3 to a Vec.
func (p Point3) Vec() Vec { return Vec{p.X, p.Y, p.Z} }

// AsPoint2 converts v to a Point2. It panics unless len(v) == 2.
func (v Vec) AsPoint2() Point2 {
	mustSameDim(len(v), 2)
	return Point2{v[0], v[1]}
}

// AsPoint3 converts v to a Point3. It panics unless len(v) == 3.
func (v Vec) AsPoint3() Point3 {
	mustSameDim(len(v), 3)
	return Point3{v[0], v[1], v[2]}
}

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("geom: dimension mismatch: %d != %d", a, b))
	}
}

// Rotate returns p rotated by angle (radians) around the origin.
func (p Point2) Rotate(angle float64) Point2 {
	s, c := math.Sincos(angle)
	return Point2{X: p.X*c - p.Y*s, Y: p.X*s + p.Y*c}
}

// RotateAround returns p rotated by angle around the given center.
func (p Point2) RotateAround(center Point2, angle float64) Point2 {
	return p.Sub(center).Rotate(angle).Add(center)
}
