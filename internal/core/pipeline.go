package core

import (
	"fmt"
	"sync"

	"omtree/internal/bisect"
	"omtree/internal/grid"
	"omtree/internal/tree"
)

// boundGrid is what the pipeline asks of a chosen grid itself: the eq. 7
// bound, once per build.
type boundGrid interface {
	UpperBound(arcCoeff float64) float64
}

// dimension is what one Euclidean dimension brings to a Polar_Grid build;
// build runs the same phase sequence for all of them. P is the caller's
// point type and C the coordinates around the source that grid G
// classifies. The per-point and per-cell hooks are plain function values,
// never methods of a type parameter, which the hot loops would otherwise
// reach through an extra indirection.
type dimension[P, C any, G boundGrid] struct {
	dim     int
	natural int // out-degree of the natural variant
	source  P   // the caller's source point: node 0
	origin  C   // the source's own coordinates
	convert func(P) C
	radius  func(C) float64
	// edges is the cell pass's edge-length loop over the caller's points
	// (edges2, edges3, edgesD): delays come from the points the caller
	// gave, never from the converted coordinates.
	edges func(pts []P, parent []int32, edge []float64)
	// search is the analytic k search over the receivers' coordinates,
	// capped at kMax and run on the given number of workers: the deepest
	// feasible grid and its depth.
	search func(receivers []C, scale float64, kMax, workers int) (G, int, error)
	// classify returns a point's cell and its representative score there.
	classify  func(G, C) (int32, float64)
	connector func(G, []C, bisect.Attacher) connector
	scratch   *sync.Pool // the cell pass's scratch for P and C
}

// build runs Algorithm Polar_Grid's phases in order — convert, grid,
// bucketing, reps, wire, metrics — for every dimension and worker count: a
// serial build is the one-worker case of the same bucketing and wiring.
// The wire phase proves and measures each cell as it wires it (cellPass),
// so the metrics phase only reduces the per-cell results.
func build[P, C any, G boundGrid](receivers []P, opts []Option, d dimension[P, C, G]) (*Result, error) {
	o := buildOptions(opts)
	variant, degCap, err := variantFor(o.maxOutDegree, d.natural)
	if err != nil {
		return nil, err
	}
	n := len(receivers)
	workers := o.effectiveWorkers(n, parallelBuildThreshold)
	o.obs.Gauge("build/workers").Set(float64(workers))
	in := newInstr(o, d.dim, n)
	defer in.finish()

	endConv := in.phase("build/convert")
	coords := make([]C, n+1)
	coords[0] = d.origin
	scale, err := convertCoords(workers, receivers, coords, d.convert, d.radius)
	endConv()
	if err != nil {
		return nil, err
	}

	res := &Result{Dim: d.dim, Variant: variant, MaxOutDegree: degCap, Scale: scale}
	if n == 0 || scale == 0 {
		// No receivers, or all coincident with the source: geometry is
		// degenerate and any balanced tree is optimal (zero-length edges).
		if res.Tree, err = buildDegenerate(n, degCap); err != nil {
			return nil, err
		}
		return res, nil
	}

	endGrid := in.phase("build/grid")
	g, k, err := pickK(o, n, func(kMax int) (G, int, error) {
		return d.search(coords[1:], scale, kMax, workers)
	})
	endGrid()
	if err != nil {
		return nil, err
	}

	endBucket := in.phase("build/bucketing")
	groups, tallies := bucketCells(workers, grid.NumCells(k), nil, coords, g, d.classify)
	endBucket()
	endReps := in.phase("build/reps")
	reps := electReps(tallies)
	endReps()

	parents := make([]int32, n+1)
	parents[0] = tree.NoParent
	p := &cellPass[P, C]{
		k: k, variant: variant, degCap: degCap,
		groups: groups, reps: reps, coords: coords,
		source: d.source, points: receivers, edges: d.edges,
		conn: func(c []C, a bisect.Attacher) connector {
			return d.connector(g, c, a)
		},
		parents: parents, scratch: d.scratch,
	}
	if err := p.finish(in, res, p.run(workers, in), g); err != nil {
		return nil, err
	}
	return res, nil
}

// finish is the metrics phase every build ends with, after its cell pass
// ran on the workers' scratch in pool: the radius, the largest delay any
// worker measured; the core delay, the largest representative delay; k
// and the eq. 7 bound of grid g; and the tree over the proven parents. Or
// the error of the lowest broken cell, the same at any worker count. It
// hands the scratch back to the pass's pool.
func (p *cellPass[P, C]) finish(in instr, res *Result, pool []*cellScratch[P, C], g boundGrid) error {
	endMetrics := in.phase("build/metrics")
	defer endMetrics()
	var err error
	var radius, core float64
	errCell := 0
	for _, sc := range pool {
		if sc.err != nil && (err == nil || sc.errCell < errCell) {
			err, errCell = sc.err, sc.errCell
		}
		if sc.radius > radius {
			radius = sc.radius
		}
		sc.conn, sc.radius, sc.err, sc.busyNs, sc.cellCnt = nil, 0, nil, 0, 0
		p.scratch.Put(sc)
	}
	if err != nil {
		return err
	}
	for c, rep := range p.reps {
		if c > 0 && rep >= 0 && p.repDelay[c] > core {
			core = p.repDelay[c]
		}
	}
	res.Tree = tree.FromProven(0, p.parents)
	res.K = p.k
	res.Radius = radius
	res.CoreDelay = core
	res.Bound = g.UpperBound(arcCoeff(res.Variant))
	return nil
}

// pickK resolves the grid with search, the analytic k search capped at its
// argument: the deepest feasible grid up to the search ceiling, or a forced
// depth. Feasibility is downward-closed, so a forced k is feasible exactly
// when the search capped at k returns k. A depth-k grid has 2^k - 2
// interior cells, so a forced k beyond grid.MaxK, or with more interior
// cells than receivers, fails before the search allocates anything.
func pickK[G any](o options, n int, search func(kMax int) (G, int, error)) (G, int, error) {
	k := o.forceK
	if k <= 0 {
		kMax := o.kMax
		if kMax <= 0 {
			kMax = grid.DefaultKMax(n)
		}
		return search(kMax)
	}
	if k <= grid.MaxK && 1<<k-2 <= n {
		g, got, err := search(k)
		if err != nil || got == k {
			return g, got, err
		}
	}
	var none G
	return none, 0, fmt.Errorf("core: forced k = %d leaves an interior grid cell empty", k)
}

// arcCoeff is the Delta_0 coefficient of upper bound (7): 2 for the natural
// variant, doubled to 4 when the in-cell Bisection spends two links per
// level (§IV-A) — which both the binary and the hybrid variants do.
func arcCoeff(v Variant) float64 {
	if v == VariantNatural {
		return 2
	}
	return 4
}

// buildDegenerate handles the no-receivers / all-coincident-with-source case
// shared by every dimension: geometry is useless and any balanced tree is
// optimal (all edges have zero length). Receivers 1..n hang under the
// source as a balanced degCap-ary tree.
func buildDegenerate(n, degCap int) (*tree.Tree, error) {
	b, err := tree.NewBuilder(n+1, 0, degCap)
	if err != nil {
		return nil, err
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i + 1)
	}
	bisect.AttachKary(b, idx, 0, degCap)
	return b.Build()
}
