package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/invariant"
	"omtree/internal/rng"
	"omtree/internal/tree"
)

// treeBytes serializes a tree through the binary codec; byte equality of the
// output is the determinism criterion for parallel vs serial builds.
func treeBytes(t testing.TB, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// audit runs the independent invariant checker over a build result.
func audit(t testing.TB, res *Result, n int, dist tree.DistFunc) {
	t.Helper()
	if l := invariant.Check(res.Tree, n+1, 0, res.MaxOutDegree, dist, res.Radius); len(l) != 0 {
		t.Fatalf("invariants violated: %v", l)
	}
}

func dist3For(source geom.Point3, receivers []geom.Point3) tree.DistFunc {
	return func(i, j int) float64 {
		pi, pj := source, source
		if i > 0 {
			pi = receivers[i-1]
		}
		if j > 0 {
			pj = receivers[j-1]
		}
		return pi.Dist(pj)
	}
}

func distDFor(source geom.Vec, receivers []geom.Vec) tree.DistFunc {
	return func(i, j int) float64 {
		pi, pj := source, source
		if i > 0 {
			pi = receivers[i-1]
		}
		if j > 0 {
			pj = receivers[j-1]
		}
		return pi.Dist(pj)
	}
}

var parallelWorkerCounts = []int{2, 4, 8}

// TestParallelMatchesSerial2D: for randomized inputs across sizes and degree
// variants, every worker count produces a byte-identical tree and identical
// metrics, and every build passes the independent invariant audit. Explicit
// worker counts engage the parallel path even below the automatic size
// threshold, so the small cases exercise it too.
func TestParallelMatchesSerial2D(t *testing.T) {
	r := rng.New(42)
	for _, tc := range []struct{ n, deg int }{
		{1, 0}, {7, 2}, {64, 4}, {500, 0}, {500, 2}, {3000, 0}, {3000, 2},
	} {
		recv := r.UniformDiskN(tc.n, 1)
		dist := dist2For(geom.Point2{}, recv)
		serial, err := Build2(geom.Point2{}, recv,
			WithMaxOutDegree(tc.deg), WithParallelism(1))
		if err != nil {
			t.Fatalf("n=%d deg=%d serial: %v", tc.n, tc.deg, err)
		}
		audit(t, serial, tc.n, dist)
		want := treeBytes(t, serial.Tree)
		for _, w := range parallelWorkerCounts {
			par, err := Build2(geom.Point2{}, recv,
				WithMaxOutDegree(tc.deg), WithParallelism(w))
			if err != nil {
				t.Fatalf("n=%d deg=%d workers=%d: %v", tc.n, tc.deg, w, err)
			}
			audit(t, par, tc.n, dist)
			if !bytes.Equal(want, treeBytes(t, par.Tree)) {
				t.Fatalf("n=%d deg=%d workers=%d: tree differs from serial", tc.n, tc.deg, w)
			}
			if par.Radius != serial.Radius || par.K != serial.K || par.CoreDelay != serial.CoreDelay {
				t.Fatalf("n=%d deg=%d workers=%d: metrics differ", tc.n, tc.deg, w)
			}
		}
	}
}

func TestParallelMatchesSerial3D(t *testing.T) {
	r := rng.New(43)
	for _, tc := range []struct{ n, deg int }{{5, 0}, {400, 0}, {400, 2}, {2500, 2}} {
		recv := r.UniformBall3N(tc.n, 1)
		dist := dist3For(geom.Point3{}, recv)
		serial, err := Build3(geom.Point3{}, recv,
			WithMaxOutDegree(tc.deg), WithParallelism(1))
		if err != nil {
			t.Fatalf("n=%d deg=%d serial: %v", tc.n, tc.deg, err)
		}
		audit(t, serial, tc.n, dist)
		want := treeBytes(t, serial.Tree)
		for _, w := range parallelWorkerCounts {
			par, err := Build3(geom.Point3{}, recv,
				WithMaxOutDegree(tc.deg), WithParallelism(w))
			if err != nil {
				t.Fatalf("n=%d deg=%d workers=%d: %v", tc.n, tc.deg, w, err)
			}
			audit(t, par, tc.n, dist)
			if !bytes.Equal(want, treeBytes(t, par.Tree)) {
				t.Fatalf("n=%d deg=%d workers=%d: tree differs from serial", tc.n, tc.deg, w)
			}
		}
	}
}

func TestParallelMatchesSerialD(t *testing.T) {
	r := rng.New(44)
	for _, tc := range []struct{ d, n, deg int }{
		{2, 300, 0}, {3, 300, 2}, {4, 600, 0}, {5, 600, 2},
	} {
		recv := r.UniformBallDN(tc.n, tc.d, 1)
		src := make(geom.Vec, tc.d)
		dist := distDFor(src, recv)
		serial, err := BuildD(src, recv, WithMaxOutDegree(tc.deg), WithParallelism(1))
		if err != nil {
			t.Fatalf("d=%d deg=%d serial: %v", tc.d, tc.deg, err)
		}
		audit(t, serial, tc.n, dist)
		want := treeBytes(t, serial.Tree)
		for _, w := range parallelWorkerCounts {
			par, err := BuildD(src, recv, WithMaxOutDegree(tc.deg), WithParallelism(w))
			if err != nil {
				t.Fatalf("d=%d deg=%d workers=%d: %v", tc.d, tc.deg, w, err)
			}
			audit(t, par, tc.n, dist)
			if !bytes.Equal(want, treeBytes(t, par.Tree)) {
				t.Fatalf("d=%d deg=%d workers=%d: tree differs from serial", tc.d, tc.deg, w)
			}
		}
	}
}

// TestParallelDefaultThreshold: the automatic worker count only engages above
// the size threshold; explicit counts are honored at any size. Both still
// match the serial tree (on a single-CPU host the default stays serial, which
// is equally valid — the assertion is only about output equality).
func TestParallelDefaultThreshold(t *testing.T) {
	recv := rng.New(45).UniformDiskN(parallelBuildThreshold+100, 1)
	auto, err := Build2(geom.Point2{}, recv, WithParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Build2(geom.Point2{}, recv, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(treeBytes(t, auto.Tree), treeBytes(t, serial.Tree)) {
		t.Fatal("default-parallelism build differs from serial")
	}
}

func TestEffectiveWorkersPolicy(t *testing.T) {
	for _, tc := range []struct {
		workers, n, want int
	}{
		{1, 1 << 20, 1},                    // explicit serial always wins
		{4, 10, 4},                         // explicit count honored below threshold
		{8, 1 << 20, 8},                    // explicit count honored above threshold
		{0, 1, 1},                          // n < 2 is always serial
		{4, 1, 1},                          // even explicitly
		{0, parallelBuildThreshold - 1, 1}, // default stays serial below threshold
	} {
		o := options{workers: tc.workers, maxOutDegree: 0}
		if got := o.effectiveWorkers(tc.n); got != tc.want {
			t.Errorf("effectiveWorkers(workers=%d, n=%d) = %d, want %d",
				tc.workers, tc.n, got, tc.want)
		}
	}
}

// TestConcurrentParallelBuilds hammers several parallel builds at once so the
// race detector can observe the whole pipeline under contention (kept small:
// it runs in -short mode too).
func TestConcurrentParallelBuilds(t *testing.T) {
	recv := rng.New(46).UniformDiskN(1200, 1)
	serial, err := Build2(geom.Point2{}, recv, WithParallelism(1), WithMaxOutDegree(2))
	if err != nil {
		t.Fatal(err)
	}
	want := treeBytes(t, serial.Tree)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Build2(geom.Point2{}, recv,
				WithParallelism(2+g%3), WithMaxOutDegree(2))
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			var buf bytes.Buffer
			if err := res.Tree.WriteBinary(&buf); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("goroutine %d: tree differs from serial", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestMeasureReportsBrokenWiring: a wiring bug — a node left unattached, a
// parent past the end, a cycle, a node over the degree cap — surfaces from
// the metrics phase as an error at any worker count, never as an index panic
// in the parallel edge-length pass.
func TestMeasureReportsBrokenWiring(t *testing.T) {
	pos := []float64{0, 1, 2, 3}
	dist := func(i, j int) float64 { return pos[j] - pos[i] } // indexes like a build's dist
	g := grid.PolarGrid{K: 1, Scale: 1}
	for _, parents := range [][]int32{
		{tree.NoParent, 0, unattachedNode, 1},
		{tree.NoParent, 0, 9, 1},
		{tree.NoParent, 2, 3, 1},
		{tree.NoParent, 0, 0, 0},
	} {
		for _, workers := range []int{1, 2} {
			res := &Result{MaxOutDegree: 2}
			err := measure(instr{}, res, append([]int32(nil), parents...), workers, dist, nil, 1, g)
			if err == nil || !strings.Contains(err.Error(), "incomplete wiring (bug)") {
				t.Errorf("parents %v, %d workers: err = %v", parents, workers, err)
			}
		}
	}
}

// FuzzWireRoundTrip drives the whole pipeline from fuzzed parameters: a
// serial and a parallel build must agree byte-for-byte, survive a binary
// codec round-trip, and pass the invariant audit.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(uint64(1), 10, 0, 2, 2)
	f.Add(uint64(2), 100, 2, 2, 4)
	f.Add(uint64(3), 50, 4, 3, 8)
	f.Add(uint64(4), 30, 2, 4, 3)
	f.Add(uint64(5), 0, 0, 2, 2)
	f.Fuzz(func(t *testing.T, seed uint64, n, deg, dim, workers int) {
		n = ((n % 200) + 200) % 200
		dim = 2 + ((dim%3)+3)%3 // 2..4
		deg = ((deg % 7) + 7) % 7
		if deg == 1 {
			deg = 2 // out-degree 1 is rejected by construction
		}
		workers = 2 + ((workers%7)+7)%7 // 2..8

		r := rng.New(seed)
		var serial, par *Result
		var dist tree.DistFunc
		var err, perr error
		switch dim {
		case 2:
			recv := r.UniformDiskN(n, 1)
			dist = dist2For(geom.Point2{}, recv)
			serial, err = Build2(geom.Point2{}, recv, WithMaxOutDegree(deg), WithParallelism(1))
			par, perr = Build2(geom.Point2{}, recv, WithMaxOutDegree(deg), WithParallelism(workers))
		case 3:
			recv := r.UniformBall3N(n, 1)
			dist = dist3For(geom.Point3{}, recv)
			serial, err = Build3(geom.Point3{}, recv, WithMaxOutDegree(deg), WithParallelism(1))
			par, perr = Build3(geom.Point3{}, recv, WithMaxOutDegree(deg), WithParallelism(workers))
		default:
			recv := r.UniformBallDN(n, dim, 1)
			src := make(geom.Vec, dim)
			dist = distDFor(src, recv)
			serial, err = BuildD(src, recv, WithMaxOutDegree(deg), WithParallelism(1))
			par, perr = BuildD(src, recv, WithMaxOutDegree(deg), WithParallelism(workers))
		}
		if (err == nil) != (perr == nil) {
			t.Fatalf("serial err %v but parallel err %v", err, perr)
		}
		if err != nil {
			return // both rejected the input the same way
		}
		audit(t, serial, n, dist)
		audit(t, par, n, dist)
		want := treeBytes(t, serial.Tree)
		if !bytes.Equal(want, treeBytes(t, par.Tree)) {
			t.Fatalf("dim=%d n=%d deg=%d workers=%d: parallel tree differs", dim, n, deg, workers)
		}
		back, rerr := tree.ReadBinary(bytes.NewReader(want))
		if rerr != nil {
			t.Fatalf("codec rejected its own output: %v", rerr)
		}
		if !bytes.Equal(want, treeBytes(t, back)) {
			t.Fatal("binary codec round-trip not stable")
		}
	})
}
