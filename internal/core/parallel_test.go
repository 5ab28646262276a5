package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/invariant"
	"omtree/internal/obs"
	"omtree/internal/rng"
	"omtree/internal/snapshot"
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
		if got := o.effectiveWorkers(tc.n, parallelBuildThreshold); got != tc.want {
			t.Errorf("effectiveWorkers(workers=%d, n=%d) = %d, want %d",
				tc.workers, tc.n, got, tc.want)
		}
	}
}

// TestBuildStateWorkersByRewiredMembers checks the automatic worker count
// of BuildState rebuilds through the build/workers gauge: a full rebuild
// takes the one-shot rule over the membership, and a churn rebuild takes
// the pool only when the cells it rewires hold churnParallelThreshold
// members, not when the group does.
func TestBuildStateWorkersByRewiredMembers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r := rng.New(47)
	pool := r.UniformDiskN(12_000, 1)
	reg := obs.New()
	s, err := NewBuildState(geom.Point2{}, WithObserver(reg), WithKMax(7))
	if err != nil {
		t.Fatal(err)
	}
	workers := func() float64 { return reg.Gauge("build/workers").Value() }
	rebuild := func(step string, wantFull bool, want float64) {
		t.Helper()
		if _, full, err := s.Rebuild(); err != nil || full != wantFull {
			t.Fatalf("%s: full %v, err %v; want full %v", step, full, err, wantFull)
		}
		if got := workers(); got != want {
			t.Fatalf("%s: build/workers = %v, want %v", step, got, want)
		}
	}
	for i, p := range pool[:10_000] {
		s.Add(i+1, p.Scale(0.9))
	}
	rebuild("first build", true, 2)
	// A few leaves: the rewired cells hold far fewer members than the
	// threshold, though the group holds more.
	for slot := 1; slot <= 4; slot++ {
		s.Remove(slot)
	}
	rebuild("small churn", false, 1)
	// Churn in every cell: the rewired cells hold most of the group.
	for slot := 5; slot <= 2_000; slot += 2 {
		s.Remove(slot)
		s.Add(10_000+slot, pool[10_000+slot-5].Scale(0.9))
	}
	rebuild("wide churn", false, 2)
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

// brokenConn wires every cell as its connector does except cell target,
// whose in-cell Bisection breaks the wiring in the way fault names. Ids are
// the cell's local ids: its members and its local source first, its child
// cells' representatives right after them, from len(idx)+1 on.
type brokenConn struct {
	connector
	a      bisect.Attacher
	target int
	fault  string
}

func (c *brokenConn) connectNatural(idx []int32, src int32, cellID int) {
	if cellID != c.target {
		c.connector.connectNatural(idx, src, cellID)
		return
	}
	switch c.fault {
	case "unattached":
		c.connector.connectNatural(idx[1:], src, cellID)
	case "out of range":
		c.connector.connectNatural(idx[1:], src, cellID)
		c.a.MustAttach(int(idx[0]), 1<<20)
	case "cycle":
		c.connector.connectNatural(idx[2:], src, cellID)
		c.a.MustAttach(int(idx[0]), int(idx[1]))
		c.a.MustAttach(int(idx[1]), int(idx[0]))
	case "over the cap":
		for _, v := range idx {
			c.a.MustAttach(int(v), int(src))
		}
	case "another cell":
		c.connector.connectNatural(idx[1:], src, cellID)
		c.a.MustAttach(int(idx[0]), len(idx)+1)
	}
}

// brokenWiringFaults are the ways TestCellProofReportsBrokenWiring breaks a
// cell: a member left unattached, a parent out of range, a cycle, a node
// over the degree cap, and a member hung under a node of another cell.
var brokenWiringFaults = []string{"unattached", "out of range", "cycle", "over the cap", "another cell"}

// TestCellProofReportsBrokenWiring: a wiring bug in one cell surfaces from
// that cell's proof as an incomplete-wiring error, with the same text at 1,
// 2 and 8 workers, and never hangs the cells that wait for it. It breaks a
// ring-1 cell of a one-shot build through a faulty connector, and a
// BuildState's retained parents of the same cell before a rebuild that
// measures every cell from them.
func TestCellProofReportsBrokenWiring(t *testing.T) {
	recv := rng.New(59).UniformDiskN(4000, 1)
	const target = 1 // ring 1: every cell below it waits for it
	opts := func(workers int) []Option {
		return []Option{WithKMax(6), WithParallelism(workers)}
	}
	oneShot := func(workers int, fault string) error {
		_, err := build(recv, opts(workers), dimension[geom.Point2, geom.Polar, grid.PolarGrid]{
			dim:     2,
			natural: naturalDegree2D,
			convert: func(p geom.Point2) geom.Polar { return p.ToPolar() },
			radius:  func(c geom.Polar) float64 { return c.R },
			edges:   edges2,
			search: func(polars []geom.Polar, scale float64, kMax, workers int) (grid.PolarGrid, int, error) {
				k := grid.MaxFeasibleKAnalyticPar(polars, scale, kMax, workers)
				return grid.PolarGrid{K: k, Scale: scale}, k, nil
			},
			classify: classify2,
			connector: func(g grid.PolarGrid, c []geom.Polar, a bisect.Attacher) connector {
				return &brokenConn{connector: newConn2(g, c, a), a: a, target: target, fault: fault}
			},
			scratch: &scratch2,
		})
		return err
	}
	retained := func(workers int, fault string) error {
		s, err := NewBuildState(geom.Point2{}, opts(workers)...)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range recv {
			s.Add(i+1, p)
		}
		if _, _, err := s.Rebuild(); err != nil {
			t.Fatal(err)
		}
		members, rep := s.members[target], s.reps[target]
		var others []int32
		for _, sl := range members {
			if sl != rep {
				others = append(others, sl)
			}
		}
		at := func(sl int32) *int32 { return &s.parent[s.live.rank(int(sl))] }
		switch fault {
		case "unattached":
			*at(others[0]) = unattachedNode
		case "out of range":
			*at(others[0]) = -7
		case "cycle":
			*at(others[0]), *at(others[1]) = others[1], others[0]
		case "over the cap":
			for _, sl := range others {
				*at(sl) = rep
			}
		case "another cell":
			*at(others[0]) = s.members[target+1][0]
		}
		s.last = nil // rebuild with every cell clean
		_, full, err := s.Rebuild()
		if full {
			t.Fatalf("%s: the rebuild ran full", fault)
		}
		return err
	}
	for _, fault := range brokenWiringFaults {
		for name, run := range map[string]func(int, string) error{"one-shot": oneShot, "retained": retained} {
			var serial string
			for _, workers := range []int{1, 2, 8} {
				err := run(workers, fault)
				if err == nil || !strings.Contains(err.Error(), "incomplete wiring (bug)") {
					t.Errorf("%s %s, %d workers: err = %v", name, fault, workers, err)
					continue
				}
				if workers == 1 {
					serial = err.Error()
				} else if err.Error() != serial {
					t.Errorf("%s %s, %d workers: %v, serial %s", name, fault, workers, err, serial)
				}
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

// TestBuildStateWorkerCountsAgree drives one BuildState per worker count
// (1, 2 and 3) through the same script — a first build, churn rebuilds, a
// rebuild forced full by a joiner beyond the scale, a restore from a
// checkpoint, more churn, and two members at NaN — and requires every
// outcome to match the serial state's: the parents, the Radius, CoreDelay
// and bound bits, the certificate, the checkpoint bytes, and the error
// text. Explicit worker counts engage the pool at this size, so the race
// detector sees the parallel paths of both rebuilds.
func TestBuildStateWorkerCountsAgree(t *testing.T) {
	workers := []int{1, 2, 3}
	source := geom.Point2{X: 0.05, Y: -0.1}
	for _, deg := range []int{6, 2, 3} {
		r := rng.New(uint64(60 + deg))
		pool := r.UniformDiskN(3000, 1)
		states := make([]*BuildState, len(workers))
		for i, w := range workers {
			s, err := NewBuildState(source, WithMaxOutDegree(deg), WithParallelism(w))
			if err != nil {
				t.Fatal(err)
			}
			states[i] = s
		}
		each := func(fn func(s *BuildState)) {
			for _, s := range states {
				fn(s)
			}
		}
		var present []int
		next := 1
		join := func(p geom.Point2) {
			slot := next
			next++
			each(func(s *BuildState) { s.Add(slot, p) })
			present = append(present, slot)
		}
		incremental := 0
		check := func(step string) {
			t.Helper()
			type outcome struct {
				res  *Result
				full bool
				err  error
			}
			got := make([]outcome, len(states))
			for i, s := range states {
				res, full, err := s.Rebuild()
				got[i] = outcome{res, full, err}
			}
			want := got[0]
			if want.err == nil && !want.full {
				incremental++
			}
			for i, o := range got[1:] {
				w := workers[i+1]
				if (o.err == nil) != (want.err == nil) || (o.err != nil && o.err.Error() != want.err.Error()) {
					t.Fatalf("deg=%d %s workers=%d: error %v, serial %v", deg, step, w, o.err, want.err)
				}
				if o.err != nil {
					continue
				}
				if o.full != want.full {
					t.Fatalf("deg=%d %s workers=%d: full %v, serial %v", deg, step, w, o.full, want.full)
				}
				if !bytes.Equal(treeBytes(t, o.res.Tree), treeBytes(t, want.res.Tree)) {
					t.Fatalf("deg=%d %s workers=%d: parents differ from the serial state's", deg, step, w)
				}
				if math.Float64bits(o.res.Radius) != math.Float64bits(want.res.Radius) ||
					math.Float64bits(o.res.CoreDelay) != math.Float64bits(want.res.CoreDelay) ||
					math.Float64bits(o.res.Bound) != math.Float64bits(want.res.Bound) || o.res.K != want.res.K {
					t.Fatalf("deg=%d %s workers=%d: metrics %+v, serial %+v", deg, step, w, o.res, want.res)
				}
				if states[i+1].Certificate() != states[0].Certificate() {
					t.Fatalf("deg=%d %s workers=%d: certificate differs", deg, step, w)
				}
				if !bytes.Equal(encodeState(states[i+1]), encodeState(states[0])) {
					t.Fatalf("deg=%d %s workers=%d: checkpoint bytes differ", deg, step, w)
				}
			}
		}
		churn := func() {
			for j := 0; j < 40; j++ {
				i := r.Intn(len(present))
				slot := present[i]
				each(func(s *BuildState) { s.Remove(slot) })
				present = append(present[:i], present[i+1:]...)
			}
			for j := 0; j < 40; j++ {
				join(pool[next%len(pool)].Scale(0.9))
			}
		}

		for _, p := range pool[:1500] {
			join(p)
		}
		check("first build")
		for round := range 4 {
			churn()
			check(fmt.Sprintf("churn %d", round))
		}
		join(geom.Point2{X: 1.5, Y: 0}) // beyond the scale: a full rebuild
		check("scale growth")

		// Restore every state from the serial state's checkpoint.
		blob := encodeState(states[0])
		for i, w := range workers {
			s, err := DecodeBuildState(snapshot.NewDecoder(blob), nil)
			if err != nil {
				t.Fatal(err)
			}
			s.o.workers = w
			states[i] = s
		}
		check("restored")
		for round := 4; round < 6; round++ {
			churn()
			check(fmt.Sprintf("churn %d", round))
		}

		// Two members at NaN: each worker count names the lower slot.
		nan := geom.Point2{X: math.NaN(), Y: 0}
		lo, hi := present[len(present)/2], present[len(present)*5/6]
		each(func(s *BuildState) { s.Remove(hi); s.Add(hi, nan) })
		each(func(s *BuildState) { s.Remove(lo); s.Add(lo, nan) })
		check("NaN members")
		if incremental < 4 {
			t.Fatalf("deg=%d: %d incremental rebuilds, want at least 4", deg, incremental)
		}
		if _, _, err := states[2].Rebuild(); !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), fmt.Sprintf("slot %d ", lo)) {
			t.Fatalf("deg=%d: NaN members: %v, want ErrNonFinite naming slot %d", deg, err, lo)
		}
	}
}
