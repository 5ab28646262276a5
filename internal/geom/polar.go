package geom

import "math"

// TwoPi is 2*pi, the full angle of a circle.
const TwoPi = 2 * math.Pi

// Polar is a point of the plane in polar coordinates: radius R >= 0 and angle
// Theta normalized to [0, 2*pi).
type Polar struct {
	R, Theta float64
}

// ToPolar converts p to polar coordinates around the origin.
func (p Point2) ToPolar() Polar {
	return Polar{R: p.Norm(), Theta: NormalizeAngle(math.Atan2(p.Y, p.X))}
}

// PolarAround converts p to polar coordinates around the given origin.
func (p Point2) PolarAround(origin Point2) Polar {
	return p.Sub(origin).ToPolar()
}

// ToPoint converts polar coordinates back to a Cartesian point.
func (c Polar) ToPoint() Point2 {
	s, cos := math.Sincos(c.Theta)
	return Point2{X: c.R * cos, Y: c.R * s}
}

// NormalizeAngle maps an angle (radians) into [0, 2*pi).
func NormalizeAngle(a float64) float64 {
	// math.Mod returns an angle inside (-2*pi, 2*pi), such as every Atan2
	// result, unchanged.
	if !(a > -TwoPi && a < TwoPi) {
		a = math.Mod(a, TwoPi)
	}
	if a < 0 {
		a += TwoPi
	}
	// math.Mod can return exactly TwoPi-eps sums that round to TwoPi after
	// the correction above; clamp so callers can rely on a < 2*pi.
	if a >= TwoPi {
		a = 0
	}
	return a
}

// Spherical is a point of 3-space in spherical coordinates: radius R >= 0,
// azimuth Theta in [0, 2*pi), and U = cos(polar angle) in [-1, 1]. The
// surface measure of the unit sphere is uniform in (Theta, U), which makes
// equal-area splitting trivial.
type Spherical struct {
	R, Theta, U float64
}

// ToSpherical converts p to spherical coordinates around the origin.
func (p Point3) ToSpherical() Spherical {
	r := p.Norm()
	if r == 0 {
		return Spherical{R: 0, Theta: 0, U: 1}
	}
	u := p.Z / r
	if u > 1 {
		u = 1
	} else if u < -1 {
		u = -1
	}
	return Spherical{
		R:     r,
		Theta: NormalizeAngle(math.Atan2(p.Y, p.X)),
		U:     u,
	}
}

// SphericalAround converts p to spherical coordinates around origin.
func (p Point3) SphericalAround(origin Point3) Spherical {
	return p.Sub(origin).ToSpherical()
}

// ToPoint converts spherical coordinates back to a Cartesian point.
func (c Spherical) ToPoint() Point3 {
	s, cos := math.Sincos(c.Theta)
	return SphericalPoint(c.R, c.U, SinOfCos(c.U), s, cos)
}

// SinOfCos returns sin(phi) for u = cos(phi), phi in [0, pi]: the factor
// by which ToPoint scales the azimuth plane.
func SinOfCos(u float64) float64 { return math.Sqrt(math.Max(0, 1-u*u)) }

// SphericalPoint is ToPoint's arithmetic for a caller holding the factors
// already: the point at radius r whose polar angle has cosine u and sine
// sinPhi, and whose azimuth has sine sinTheta and cosine cosTheta.
func SphericalPoint(r, u, sinPhi, sinTheta, cosTheta float64) Point3 {
	return Point3{
		X: r * sinPhi * cosTheta,
		Y: r * sinPhi * sinTheta,
		Z: r * u,
	}
}

// Hyperspherical holds the hyperspherical coordinates of a point of
// d-dimensional space, d >= 2: radius R, azimuth Theta in [0, 2*pi), and
// polar angles Phi[0..d-3], each in [0, pi].
//
// The Cartesian reconstruction convention (matching ToHyperspherical) is:
//
//	x_d     = R * cos(Phi[d-3])
//	x_{d-1} = R * sin(Phi[d-3]) * cos(Phi[d-4])
//	...
//	x_3     = R * sin(Phi[d-3]) * ... * sin(Phi[1]) * cos(Phi[0])
//	x_2     = R * sin(Phi[d-3]) * ... * sin(Phi[0]) * sin(Theta)
//	x_1     = R * sin(Phi[d-3]) * ... * sin(Phi[0]) * cos(Theta)
//
// so Phi[m] carries surface measure proportional to sin(Phi[m])^(m+1).
type Hyperspherical struct {
	R     float64
	Theta float64
	Phi   []float64
}

// ToHyperspherical converts v (dimension d >= 2) to hyperspherical
// coordinates around the origin.
func (v Vec) ToHyperspherical() Hyperspherical {
	d := len(v)
	if d < 2 {
		panic("geom: hyperspherical coordinates need dimension >= 2")
	}
	h := Hyperspherical{Phi: make([]float64, d-2)}
	h.R = v.Norm()
	h.Theta = NormalizeAngle(math.Atan2(v[1], v[0]))
	// Work outward: Phi[m] is the angle between the axis x_{m+3} and the
	// projection of v onto span(x_1..x_{m+3}).
	norm := math.Hypot(v[0], v[1])
	for m := 0; m < d-2; m++ {
		h.Phi[m] = math.Atan2(norm, v[m+2])
		norm = math.Hypot(norm, v[m+2])
	}
	return h
}

// ToVec converts hyperspherical coordinates back to a Cartesian vector of
// dimension len(Phi)+2.
func (h Hyperspherical) ToVec() Vec {
	return h.VecInto(make(Vec, len(h.Phi)+2))
}

// VecInto is ToVec writing into v, which must have dimension len(Phi)+2,
// and returning it.
func (h Hyperspherical) VecInto(v Vec) Vec {
	d := len(h.Phi) + 2
	prod := h.R
	for m := d - 3; m >= 0; m-- {
		s, c := math.Sincos(h.Phi[m])
		v[m+2] = prod * c
		prod *= s
	}
	s, c := math.Sincos(h.Theta)
	v[0] = prod * c
	v[1] = prod * s
	return v
}
