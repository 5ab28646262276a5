package main

import (
	"fmt"
	"math"
	"time"

	"omtree"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/invariant"
)

// buildInput is one of the paper's Table I inputs: n receivers uniform on
// the unit disk (dim 2) or ball (dim 3) around a source at the origin.
type buildInput struct {
	n, dim, degree int
}

var table1Inputs = map[string]buildInput{
	"table1_100k": {n: 100_000, dim: 2, degree: 6},
	"table1_1m":   {n: 1_000_000, dim: 2, degree: 6},
	"table1_3d":   {n: 200_000, dim: 3, degree: 10},
}

// buildPhases are the build/* spans the program publishes through
// omtree.WithObserver, reported as core.phase.<name>_ms. build/wire/bisect
// is left out: it sums worker CPU time into a wall-clock span.
var buildPhases = []string{"convert", "grid", "bucketing", "reps", "wire", "metrics"}

// runTable1 times repeated one-shot Polar_Grid builds of one input. A
// sample is one build of the same input, so every sample starts from the
// same state; the tree is audited after each one, outside the timer.
func runTable1(h *harness, in buildInput) error {
	var (
		pts2 []omtree.Point2
		pts3 []omtree.Point3
		dist omtree.DistFunc
	)
	build := func(reg *omtree.Observer) (*omtree.Result, error) {
		opts := []omtree.Option{omtree.WithMaxOutDegree(in.degree)}
		if reg != nil {
			opts = append(opts, omtree.WithObserver(reg))
		}
		if in.dim == 2 {
			return omtree.Build(omtree.Point2{}, pts2, opts...)
		}
		return omtree.Build3D(omtree.Point3{}, pts3, opts...)
	}
	audit := func(res *omtree.Result) {
		err := invariant.Check(res.Tree, in.n+1, 0, in.degree, dist, res.Radius).Err()
		h.check(err == nil, "tree fails the invariant audit: %v", err)
		h.check(res.Radius <= res.Bound, "radius %v exceeds the eq. 7 bound %v", res.Radius, res.Bound)
		h.same("radius_over_bound", res.Radius/res.Bound)
	}

	err := h.setup(func() error {
		pts2, pts3 = nil, nil
		r := newRand(h.seed, streamPoints)
		if in.dim == 2 {
			pts2 = uniformDisk(r, in.n)
			dist = omtree.Dist(omtree.Point2{}, pts2)
		} else {
			pts3 = uniformBall(r, in.n)
			dist = omtree.Dist3D(omtree.Point3{}, pts3)
		}
		res, err := build(nil)
		if !h.op(err) {
			return err
		}
		audit(res)
		return nil
	})
	if err != nil {
		return err
	}

	var probe *gridProbe
	if h.tr != nil {
		probe = newGridProbe(pts2, pts3)
	}
	var (
		times, traced, untraced, allocs, gcs []float64
		heapPeak                             float64
		phases                               = map[string][]float64{}
		kSearch, cellOf, delays, rings       []float64
	)
	n, err := h.loop(func(isTraced bool) error {
		var reg *omtree.Observer
		if isTraced {
			reg = omtree.NewObserver()
		}
		endSample := h.tr.span("bench.sample")
		m0 := readMem()
		end := h.tr.span("core.build")
		t0 := time.Now()
		res, err := build(reg)
		dt := ms(time.Since(t0))
		end()
		m1 := readMem()
		endSample()
		if !h.op(err) {
			return err
		}
		times = append(times, dt)
		allocs = append(allocs, float64(m1.alloc-m0.alloc)/float64(in.n))
		gcs = append(gcs, float64(m1.gcs-m0.gcs))
		heapPeak = math.Max(heapPeak, float64(m1.heap)/1e6)

		end = h.tr.span("bench.check")
		audit(res)
		end()
		if h.tr == nil {
			return nil
		}
		if !isTraced {
			untraced = append(untraced, dt)
			return nil
		}
		traced = append(traced, dt)
		snap := reg.Snapshot()
		for _, p := range buildPhases {
			sp, ok := snap.Span("build/" + p)
			h.check(ok, "build published no build/%s span", p)
			phases[p] = append(phases[p], 1e3*sp.TotalSec)
		}
		k, c, d := probe.run(h, res, dist)
		kSearch, cellOf, delays = append(kSearch, k), append(cellOf, c), append(delays, d)
		rings = append(rings, float64(res.K))
		return nil
	})
	if err != nil {
		return err
	}
	h.info = append(h.info, fmt.Sprintf("%d samples of one %d-D build of %d receivers at degree %d", n, in.dim, in.n, in.degree))

	h.timing(h.e2e, "epoch_ms", times, "ms")
	h.e2e["radius_over_bound"] = metric{h.fixed["radius_over_bound"], "ratio"}
	h.timing(h.e2e, "alloc_b_per_node", allocs, "B")
	if h.tr == nil {
		return nil
	}
	for _, p := range buildPhases {
		h.timing(h.layer, "core.phase."+p+"_ms", phases[p], "ms")
	}
	h.timing(h.layer, "grid.k_search_ms", kSearch, "ms")
	h.timing(h.layer, "grid.cell_of_ns", cellOf, "ns")
	h.timing(h.layer, "tree.delays_ms", delays, "ms")
	h.layer["core.rings"] = metric{median(rings), "count"}
	h.layer["runtime.gc_cycles"] = metric{median(gcs), "count"}
	h.layer["runtime.heap_peak_mb"] = metric{heapPeak, "MB"}
	h.overhead(traced, untraced)
	return nil
}

// gridProbe times the grid and tree layers' public functions on a build's
// own input: the analytic ring search, the point-to-cell map, and the
// delay pass. The coordinate conversion it needs is done once, untimed.
type gridProbe struct {
	polars []geom.Polar
	sph    []geom.Spherical
	scale  float64
}

func newGridProbe(pts2 []omtree.Point2, pts3 []omtree.Point3) *gridProbe {
	p := &gridProbe{}
	for _, q := range pts2 {
		c := q.PolarAround(omtree.Point2{})
		p.polars = append(p.polars, c)
		p.scale = math.Max(p.scale, c.R)
	}
	for _, q := range pts3 {
		c := q.SphericalAround(omtree.Point3{})
		p.sph = append(p.sph, c)
		p.scale = math.Max(p.scale, c.R)
	}
	return p
}

// cellSink keeps the timed cell lookups from being optimized away.
var cellSink int

// run returns the k-search time (ms), the cell lookup time per point (ns)
// and the delay pass time (ms), checking that the search agrees with the
// build's ring count.
func (p *gridProbe) run(h *harness, res *omtree.Result, dist omtree.DistFunc) (float64, float64, float64) {
	n := len(p.polars) + len(p.sph)
	kMax := grid.DefaultKMax(n)
	var k int
	end := h.tr.span("grid.k_search")
	t0 := time.Now()
	if p.polars != nil {
		k = grid.MaxFeasibleKAnalytic(p.polars, p.scale, kMax)
	} else {
		k = grid.MaxFeasibleK3Analytic(p.sph, p.scale, kMax)
	}
	kDur := ms(time.Since(t0))
	end()
	h.check(k == res.K, "k-search found %d rings, the build used %d", k, res.K)

	end = h.tr.span("grid.cell_of")
	t0 = time.Now()
	if p.polars != nil {
		g := grid.PolarGrid{K: res.K, Scale: res.Scale}
		for _, c := range p.polars {
			cellSink += g.CellOf(c)
		}
	} else {
		g := grid.SphereGrid3{K: res.K, Scale: res.Scale}
		for _, c := range p.sph {
			cellSink += g.CellOf(c)
		}
	}
	cellDur := float64(time.Since(t0)) / float64(n)
	end()

	end = h.tr.span("tree.delays")
	t0 = time.Now()
	d := res.Tree.Delays(dist)
	delayDur := ms(time.Since(t0))
	end()
	h.check(len(d) == n+1, "delay pass returned %d delays for %d nodes", len(d), n+1)
	return kDur, cellDur, delayDur
}
