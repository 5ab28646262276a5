package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic sample is 4; unbiased = 32/7.
	if want := 32.0 / 7.0; math.Abs(a.Variance()-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", a.Variance(), want)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 {
		t.Errorf("single obs: mean=%v var=%v", a.Mean(), a.Variance())
	}
}

func TestAccumulatorMatchesDirectQuick(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var a Accumulator
		var sum float64
		for _, v := range raw {
			a.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			d := float64(v) - mean
			ss += d * d
		}
		variance := ss / float64(len(raw)-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-variance) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestPercentileSingleton(t *testing.T) {
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Percentile of singleton = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 0.5) },
		func() { Percentile([]float64{1}, -0.1) },
		func() { Percentile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
