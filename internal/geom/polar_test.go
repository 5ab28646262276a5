package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNormalizeAngle(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{math.Pi, math.Pi},
		{TwoPi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * TwoPi, 0},
		{TwoPi + 0.5, 0.5},
	}
	for _, tt := range tests {
		if got := NormalizeAngle(tt.in); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestNormalizeAngleRangeQuick(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		got := NormalizeAngle(a)
		return got >= 0 && got < TwoPi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// oracleNormalizeAngle is NormalizeAngle's former body, which always took
// math.Mod.
func oracleNormalizeAngle(a float64) float64 {
	a = math.Mod(a, TwoPi)
	if a < 0 {
		a += TwoPi
	}
	if a >= TwoPi {
		a = 0
	}
	return a
}

// TestNormalizeAngleMatchesMod checks that skipping math.Mod inside
// (-2*pi, 2*pi) moves no bit: on +-0, +-pi, +-2*pi and the floats beside
// them, NaN, the infinities, +-7 and +-1e300, and on 2^20 Atan2 results.
func TestNormalizeAngleMatchesMod(t *testing.T) {
	in := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 7, -7, 1e300, -1e300}
	for _, a := range []float64{0, math.Pi, TwoPi} {
		for _, v := range []float64{a, math.Copysign(a, -1)} {
			in = append(in, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
		}
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1<<20; i++ {
		in = append(in, math.Atan2(r.NormFloat64(), r.NormFloat64()))
	}
	for _, a := range in {
		if got, want := NormalizeAngle(a), oracleNormalizeAngle(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NormalizeAngle(%v) = %v (%#x), math.Mod gives %v (%#x)",
				a, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestPolarRoundTrip(t *testing.T) {
	pts := []Point2{
		{1, 0}, {0, 1}, {-1, 0}, {0, -1},
		{0.5, 0.5}, {-0.3, 0.7}, {2, -3},
	}
	for _, p := range pts {
		got := p.ToPolar().ToPoint()
		if !almostEqual(got.X, p.X, 1e-12) || !almostEqual(got.Y, p.Y, 1e-12) {
			t.Errorf("round trip of %v = %v", p, got)
		}
	}
}

func TestPolarAround(t *testing.T) {
	origin := Point2{1, 1}
	p := Point2{2, 1}
	c := p.PolarAround(origin)
	if !almostEqual(c.R, 1, 1e-15) || !almostEqual(c.Theta, 0, 1e-15) {
		t.Errorf("PolarAround = %+v, want R=1 Theta=0", c)
	}
}

func TestSphericalRoundTrip(t *testing.T) {
	pts := []Point3{
		{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0, 0, -1},
		{0.5, -0.5, 0.7}, {-2, 1, 3},
	}
	for _, p := range pts {
		got := p.ToSpherical().ToPoint()
		if p.Dist(got) > 1e-12 {
			t.Errorf("round trip of %v = %v", p, got)
		}
	}
}

func TestSphericalOrigin(t *testing.T) {
	s := (Point3{}).ToSpherical()
	if s.R != 0 {
		t.Errorf("origin R = %v, want 0", s.R)
	}
	if s.U < -1 || s.U > 1 {
		t.Errorf("origin U = %v out of range", s.U)
	}
}

func TestSphericalURange(t *testing.T) {
	f := func(x, y, z int16) bool {
		p := Point3{float64(x), float64(y), float64(z)}
		s := p.ToSpherical()
		return s.U >= -1 && s.U <= 1 && s.Theta >= 0 && s.Theta < TwoPi && s.R >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHypersphericalRoundTrip(t *testing.T) {
	vecs := []Vec{
		{1, 0},
		{0.3, -0.4},
		{1, 2, 3},
		{-1, 0.5, 0, 2},
		{0.1, 0.2, 0.3, 0.4, 0.5},
	}
	for _, v := range vecs {
		h := v.ToHyperspherical()
		got := h.ToVec()
		if v.Dist(got) > 1e-10 {
			t.Errorf("round trip of %v = %v", v, got)
		}
		if !almostEqual(h.R, v.Norm(), 1e-12) {
			t.Errorf("R of %v = %v, want %v", v, h.R, v.Norm())
		}
		for m, phi := range h.Phi {
			if phi < 0 || phi > math.Pi {
				t.Errorf("Phi[%d] of %v = %v out of [0, pi]", m, v, phi)
			}
		}
	}
}

func TestHyperspherical3DMatchesSpherical(t *testing.T) {
	p := Point3{0.3, -0.4, 0.5}
	h := p.Vec().ToHyperspherical()
	s := p.ToSpherical()
	if !almostEqual(h.R, s.R, 1e-12) {
		t.Errorf("R: %v vs %v", h.R, s.R)
	}
	if !almostEqual(h.Theta, s.Theta, 1e-12) {
		t.Errorf("Theta: %v vs %v", h.Theta, s.Theta)
	}
	if !almostEqual(math.Cos(h.Phi[0]), s.U, 1e-12) {
		t.Errorf("cos(Phi[0]) = %v vs U = %v", math.Cos(h.Phi[0]), s.U)
	}
}

func TestHypersphericalLowDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dimension < 2")
		}
	}()
	_ = Vec{1}.ToHyperspherical()
}

func TestHypersphericalRoundTripQuick(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		v := Vec{float64(a), float64(b), float64(c), float64(d)}
		if v.Norm() == 0 {
			return true
		}
		return v.Dist(v.ToHyperspherical().ToVec()) < 1e-9*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
