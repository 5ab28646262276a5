package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEnclosingCircleKnown(t *testing.T) {
	tests := []struct {
		name   string
		pts    []Point2
		center Point2
		radius float64
	}{
		{"two points", []Point2{{0, 0}, {2, 0}}, Point2{1, 0}, 1},
		{"equilateral-ish square corners", []Point2{{0, 0}, {2, 0}, {2, 2}, {0, 2}},
			Point2{1, 1}, math.Sqrt2},
		{"single", []Point2{{3, 4}}, Point2{3, 4}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := EnclosingCircle(tt.pts)
			if c.Center.Dist(tt.center) > 1e-9 || !almostEqual(c.Radius, tt.radius, 1e-9) {
				t.Errorf("EnclosingCircle = %+v, want center %v radius %v", c, tt.center, tt.radius)
			}
		})
	}
}

func TestEnclosingCircleCoversQuick(t *testing.T) {
	f := func(coords [10]int8) bool {
		pts := make([]Point2, 0, 5)
		for i := 0; i < 10; i += 2 {
			pts = append(pts, Point2{float64(coords[i]), float64(coords[i+1])})
		}
		c := EnclosingCircle(pts)
		for _, p := range pts {
			if c.Center.Dist(p) > c.Radius+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnclosingCircleMinimal(t *testing.T) {
	// The circle through three corners of an equilateral triangle has
	// circumradius side/sqrt(3); check the algorithm finds it rather than a
	// bigger cover.
	side := 2.0
	pts := []Point2{
		{0, 0}, {side, 0}, {side / 2, side * math.Sqrt(3) / 2},
	}
	c := EnclosingCircle(pts)
	want := side / math.Sqrt(3)
	if !almostEqual(c.Radius, want, 1e-9) {
		t.Errorf("radius = %v, want %v", c.Radius, want)
	}
}

// TestEnclosingCircleScaleExact rescales triangles by powers of two up to
// 2^±450, where the circumcircle formula's cubed coordinate differences
// would overflow or underflow unscaled: the circle must rescale exactly.
func TestEnclosingCircleScaleExact(t *testing.T) {
	tris := [][]Point2{
		{{0, 0}, {2, 0}, {1, 0.5}},
		{{-0.3, 0.7}, {0.9, -0.1}, {0.2, 0.8}},
		{{1e-3, 0}, {0, 1e-3}, {-7e-4, -7e-4}},
	}
	for _, tri := range tris {
		want := circleFrom3(tri[0], tri[1], tri[2])
		for _, e := range []int{-450, -400, -341, 341, 400, 450} {
			s := make([]Point2, 3)
			for i, p := range tri {
				s[i] = Point2{math.Ldexp(p.X, e), math.Ldexp(p.Y, e)}
			}
			got := circleFrom3(s[0], s[1], s[2])
			wc := Point2{math.Ldexp(want.Center.X, e), math.Ldexp(want.Center.Y, e)}
			if got.Center != wc || got.Radius != math.Ldexp(want.Radius, e) {
				t.Errorf("%v scaled by 2^%d: circle %+v, want %v radius %v", tri, e, got, wc, math.Ldexp(want.Radius, e))
			}
		}
	}
}

func TestFarthestFrom(t *testing.T) {
	pts := []Point2{{1, 0}, {0, 3}, {-2, -2}}
	i, d := FarthestFrom(Point2{}, pts)
	if i != 1 || !almostEqual(d, 3, 1e-15) {
		// (-2,-2) has norm 2.83 < 3.
		t.Errorf("FarthestFrom = (%d, %v), want (1, 3)", i, d)
	}
	if i, d := FarthestFrom(Point2{}, nil); i != -1 || d != 0 {
		t.Errorf("FarthestFrom(empty) = (%d, %v)", i, d)
	}
}
