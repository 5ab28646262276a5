package geom

import "testing"

func TestRingSegmentQuartersPartition(t *testing.T) {
	s := RingSegment{RMin: 1, RMax: 2, ThetaMin: 0.5, ThetaMax: 1.5}
	qs := s.Quarters()

	// Quarters tile the parent: each quarter is contained and their
	// radial/angular extents meet exactly at the midpoints.
	for i, q := range qs {
		if q.RMin < s.RMin || q.RMax > s.RMax || q.ThetaMin < s.ThetaMin || q.ThetaMax > s.ThetaMax {
			t.Errorf("quarter %d %+v escapes parent %+v", i, q, s)
		}
	}
	if qs[0].RMax != s.MidR() || qs[2].RMin != s.MidR() {
		t.Error("radial split not at MidR")
	}
	if qs[0].ThetaMax != s.MidTheta() || qs[1].ThetaMin != s.MidTheta() {
		t.Error("angular split not at MidTheta")
	}
}

func TestRingSegmentContainsBoundary(t *testing.T) {
	s := RingSegment{RMin: 1, RMax: 2, ThetaMin: 0, ThetaMax: 1}
	for _, c := range []Polar{
		{R: 1, Theta: 0}, {R: 2, Theta: 1}, {R: 1.5, Theta: 0.5},
	} {
		if !s.Contains(c) {
			t.Errorf("Contains(%+v) = false, want true", c)
		}
	}
	for _, c := range []Polar{
		{R: 0.99, Theta: 0.5}, {R: 1.5, Theta: 1.01},
	} {
		if s.Contains(c) {
			t.Errorf("Contains(%+v) = true, want false", c)
		}
	}
}

func TestRingSegmentDegenerate(t *testing.T) {
	if (RingSegment{RMin: 1, RMax: 2, ThetaMin: 0, ThetaMax: 1}).Degenerate() {
		t.Error("regular segment reported degenerate")
	}
	// A point-like segment cannot be split.
	s := RingSegment{RMin: 1, RMax: 1, ThetaMin: 0.5, ThetaMax: 0.5}
	if !s.Degenerate() {
		t.Error("point segment not reported degenerate")
	}
	// Segments degenerate in only one axis can still be split.
	s = RingSegment{RMin: 1, RMax: 1, ThetaMin: 0, ThetaMax: 1}
	if s.Degenerate() {
		t.Error("radially-flat segment reported degenerate")
	}
}

func TestShellCellOctantsPartition(t *testing.T) {
	s := ShellCell{RMin: 1, RMax: 2, ThetaMin: 0, ThetaMax: 1, UMin: -0.5, UMax: 0.5}
	os := s.Octants()
	var volume float64
	for i, o := range os {
		if o.RMin < s.RMin || o.RMax > s.RMax {
			t.Errorf("octant %d radial range escapes parent", i)
		}
		// Shell-cell measure in (theta, u) is exactly the box area; all
		// octants at the same radial half must have equal angular measure.
		volume += (o.ThetaMax - o.ThetaMin) * (o.UMax - o.UMin)
	}
	parent := (s.ThetaMax - s.ThetaMin) * (s.UMax - s.UMin)
	if !almostEqual(volume, 2*parent, 1e-12) {
		t.Errorf("octants angular measure = %v, want %v", volume, 2*parent)
	}
}

func TestShellCellDegenerate(t *testing.T) {
	if (ShellCell{RMin: 1, RMax: 2, ThetaMin: 0, ThetaMax: 1, UMin: 0, UMax: 1}).Degenerate() {
		t.Error("regular cell reported degenerate")
	}
	s := ShellCell{RMin: 1, RMax: 1, ThetaMin: 2, ThetaMax: 2, UMin: 0.5, UMax: 0.5}
	if !s.Degenerate() {
		t.Error("point cell not reported degenerate")
	}
}
