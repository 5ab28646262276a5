package core

import (
	"fmt"
	"math"
	"sort"

	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
	"omtree/internal/tree"
)

// BuildState is the incremental counterpart of Build2: it retains the grid
// geometry, the per-cell membership lists, the cell assignments and the
// parent array of the last build, so that a rebuild after churn only has to
// re-run representative selection and wiring for the cells whose membership
// changed (plus their ancestor chain, whose core edges may move). The
// result is always byte-identical to a from-scratch Build2 over the current
// membership — the differential and fuzz suites enforce this — because all
// wiring decisions are functions of per-cell membership and geometry only:
// a cell whose membership did not change, and whose children's
// representatives did not change, wires exactly as before.
//
// Membership is keyed by caller-chosen slots (small non-negative integers;
// slot 0 is the source). The exported tree uses dense node ids: 0 for the
// source and i >= 1 for the i-th smallest live slot, matching what Build2
// returns for the receivers listed in slot order. Wiring tie-breaks compare
// ids only by order, so the slot -> dense-id relabeling (which is monotone)
// preserves every decision.
//
// The state's geometry (slot positions and their polar conversion) lives in
// a SlotGeometry. NewBuildState owns its geometry and grows it per Add;
// NewBuildStateShared borrows one read-only — the multi-group substrate
// builds one per source and lends it to every group rooted there — and the
// state then only ever writes its private membership arrays. All remaining
// per-group cell state is copy-on-write with respect to the retained build:
// rebuilds copy a cell's member list into scratch before the wiring
// permutes it, and only dirty cells' retained state is touched at all.
//
// The incremental path falls back to a full rebuild whenever the cheap
// exactness conditions fail:
//   - the verified k would change (an interior cell emptied, depth k+1
//     became feasible, or the k ceiling moved with n), tracked O(1) per
//     churn event via interior-occupancy counters at depths k and k+1;
//   - the grid scale would change (a point joined beyond the current
//     outermost radius, or a point at the outermost radius left);
//   - geometry is degenerate (no receivers, or all at the source).
//
// BuildState is not safe for concurrent use. Distinct BuildStates sharing
// one SlotGeometry may be used concurrently: the geometry is never written
// after construction.
type BuildState struct {
	o       options
	variant Variant
	degCap  int

	geo    *SlotGeometry // slot positions + polars; read-only when shared
	shared bool          // borrowed geometry: Add/Move are forbidden, AddSlot is the entry

	present []bool // slot -> currently a member
	n       int    // live receiver slots

	scale float64
	k     int
	g     grid.PolarGrid
	g1    grid.PolarGrid // depth k+1, for growth detection

	members [][]int32 // cell -> live slots, ascending
	cellOf  []int32   // slot -> cell
	reps    []int32   // cell -> representative slot, -1 if empty (reps[0] = -1)
	parent  []int32   // slot -> parent slot; the wiring sink's array

	cnt1   []int32 // depth-k+1 interior cell populations
	emptyK int     // empty interior cells at depth k
	empty1 int     // empty interior cells at depth k+1

	dirty    map[int]struct{}
	needFull bool
	built    bool

	cert Certificate // eq. 7 certificate of the last completed rebuild

	last *Result // cache: valid until the next Add/Remove/Move
}

// NewBuildState returns an empty incremental build around the given source.
// It accepts the same options as Build2; WithParallelism is ignored (the
// incremental path is serial — parallel and serial builds are identical
// anyway).
func NewBuildState(source geom.Point2, opts ...Option) (*BuildState, error) {
	if !source.IsFinite() {
		return nil, fmt.Errorf("core: source %v: %w", source, ErrNonFinite)
	}
	s, err := newBuildState(opts)
	if err != nil {
		return nil, err
	}
	s.geo = &SlotGeometry{source: source, pts: []geom.Polar{{}}}
	s.present = []bool{true}
	s.cellOf = []int32{0}
	s.parent = []int32{tree.NoParent}
	return s, nil
}

// NewBuildStateShared returns an empty incremental build borrowing geo,
// which must stay immutable for the state's lifetime. Membership changes go
// through AddSlot/Remove; Add and Move (which would write positions) panic.
// Any number of states — one per multicast group — may borrow one geometry
// concurrently, each paying only for its private membership arrays.
func NewBuildStateShared(geo *SlotGeometry, opts ...Option) (*BuildState, error) {
	if geo == nil {
		return nil, fmt.Errorf("core: NewBuildStateShared needs a geometry")
	}
	s, err := newBuildState(opts)
	if err != nil {
		return nil, err
	}
	s.geo, s.shared = geo, true
	slots := geo.Slots()
	s.present = make([]bool, slots)
	s.present[0] = true
	s.cellOf = make([]int32, slots)
	s.parent = make([]int32, slots)
	for i := 1; i < slots; i++ {
		s.cellOf[i] = -1
		s.parent[i] = unattachedNode
	}
	s.parent[0] = tree.NoParent
	return s, nil
}

// newBuildState resolves the options shared by both constructors.
func newBuildState(opts []Option) (*BuildState, error) {
	o := buildOptions(opts)
	variant, degCap, err := variantFor(o.maxOutDegree, naturalDegree2D)
	if err != nil {
		return nil, err
	}
	return &BuildState{
		o:       o,
		variant: variant,
		degCap:  degCap,
		dirty:   make(map[int]struct{}),
	}, nil
}

// N returns the number of live receiver slots.
func (s *BuildState) N() int { return s.n }

// Present reports whether slot is currently a live member.
func (s *BuildState) Present(slot int) bool {
	return slot > 0 && slot < len(s.present) && s.present[slot]
}

// SetInstruments (re)attaches the metrics registry and trace recorder used
// by subsequent rebuilds, mirroring WithObserver/WithTrace on Build2.
// Instrumentation never influences the produced tree.
func (s *BuildState) SetInstruments(reg *obs.Registry, rec *trace.Recorder) {
	s.o.obs, s.o.trace = reg, rec
}

// SetFlight (re)attaches the flight recorder sampled after every rebuild,
// mirroring WithFlight on Build2. Sampling never influences the produced
// tree.
func (s *BuildState) SetFlight(fr *flight.Recorder) {
	s.o.flight = fr
}

// MemoryBytes estimates the state's private resident size (membership,
// cell, and parent arrays; the geometry is counted separately, since shared
// geometries amortize across states).
func (s *BuildState) MemoryBytes() int64 {
	n := int64(len(s.present)) + 4*int64(len(s.cellOf)+len(s.parent)+len(s.reps)+len(s.cnt1))
	for _, m := range s.members {
		n += 4 * int64(cap(m))
	}
	return n
}

// ensureSlot grows the slot-indexed arrays to cover slot. Only an owning
// state may grow its geometry; a shared state's slots are fixed at
// construction.
func (s *BuildState) ensureSlot(slot int) {
	if s.shared {
		if slot >= s.geo.Slots() {
			panic(fmt.Sprintf("core: slot %d outside the shared geometry's %d slots", slot, s.geo.Slots()))
		}
		return
	}
	for len(s.present) <= slot {
		s.geo.hosts = append(s.geo.hosts, geom.Point2{})
		s.geo.pts = append(s.geo.pts, geom.Polar{})
		s.present = append(s.present, false)
		s.cellOf = append(s.cellOf, -1)
		s.parent = append(s.parent, unattachedNode)
	}
}

// Add registers a new member at the given slot with an explicit position.
// Slots must be >= 1 (0 is the source) and not currently present. States
// borrowing a shared geometry must use AddSlot instead.
func (s *BuildState) Add(slot int, p geom.Point2) {
	if s.shared {
		panic("core: BuildState.Add on shared geometry (immutable positions; use AddSlot)")
	}
	if slot <= 0 {
		panic(fmt.Sprintf("core: BuildState.Add slot %d out of range", slot))
	}
	s.ensureSlot(slot)
	if s.present[slot] {
		panic(fmt.Sprintf("core: BuildState.Add slot %d already present", slot))
	}
	s.geo.hosts[slot-1] = p
	s.geo.pts[slot] = p.PolarAround(s.geo.source)
	s.addLive(slot)
}

// AddSlot registers the member at a slot whose position the geometry
// already holds — the only join path for shared-geometry states, where
// slot h+1 is host h of the substrate the geometry was built over.
func (s *BuildState) AddSlot(slot int) {
	if slot <= 0 || slot >= s.geo.Slots() {
		panic(fmt.Sprintf("core: BuildState.AddSlot slot %d outside the geometry's %d slots", slot, s.geo.Slots()))
	}
	s.ensureSlot(slot)
	if s.present[slot] {
		panic(fmt.Sprintf("core: BuildState.AddSlot slot %d already present", slot))
	}
	s.addLive(slot)
}

// addLive makes a slot (whose geometry is in place) live, maintaining the
// incremental bookkeeping.
func (s *BuildState) addLive(slot int) {
	c := s.geo.pts[slot]
	s.present[slot] = true
	s.n++
	s.last = nil
	if !s.built || s.needFull {
		return
	}
	if !(c.R <= s.scale) {
		// The grid scale is the outermost radius: it just grew, which moves
		// every dividing circle (or the radius is NaN, which the full
		// rebuild rejects).
		s.needFull = true
		return
	}
	cell := s.g.CellOf(c)
	s.members[cell] = insertSorted(s.members[cell], int32(slot))
	s.cellOf[slot] = int32(cell)
	if ring, _ := grid.RingIdx(cell); ring > 0 && ring < s.k && len(s.members[cell]) == 1 {
		s.emptyK--
	}
	c1 := s.g1.CellOf(c)
	if r1, _ := grid.RingIdx(c1); r1 > 0 && r1 < s.g1.K {
		if s.cnt1[c1] == 0 {
			s.empty1--
		}
		s.cnt1[c1]++
	}
	s.dirty[cell] = struct{}{}
}

// Remove unregisters the member at the given slot.
func (s *BuildState) Remove(slot int) {
	if slot <= 0 || slot >= len(s.present) || !s.present[slot] {
		panic(fmt.Sprintf("core: BuildState.Remove slot %d not present", slot))
	}
	s.present[slot] = false
	s.n--
	s.last = nil
	if !s.built || s.needFull {
		return
	}
	c := s.geo.pts[slot]
	if c.R == s.scale {
		// The outermost member left; the scale (and with it every cell
		// boundary) may shrink.
		s.needFull = true
		return
	}
	cell := int(s.cellOf[slot])
	s.members[cell] = removeSorted(s.members[cell], int32(slot))
	s.cellOf[slot] = -1
	if ring, _ := grid.RingIdx(cell); ring > 0 && ring < s.k && len(s.members[cell]) == 0 {
		s.emptyK++
	}
	c1 := s.g1.CellOf(c)
	if r1, _ := grid.RingIdx(c1); r1 > 0 && r1 < s.g1.K {
		s.cnt1[c1]--
		if s.cnt1[c1] == 0 {
			s.empty1++
		}
	}
	s.dirty[cell] = struct{}{}
}

// kChanged reports whether a from-scratch build over the current membership
// would pick a different k: the current depth became infeasible, the depth
// ceiling dropped below it, or depth k+1 became both feasible and allowed.
// Feasibility is downward-closed (the grids nest), so checking k and k+1
// suffices.
func (s *BuildState) kChanged() bool {
	if s.emptyK > 0 {
		return true
	}
	kMaxNow := s.o.kMax
	if kMaxNow <= 0 {
		kMaxNow = grid.DefaultKMax(s.n)
	}
	if s.k > kMaxNow {
		return true
	}
	return s.k < kMaxNow && s.empty1 == 0
}

// Rebuild returns the tree over the current membership, exactly as Build2
// would build it from scratch. The boolean reports whether a full rebuild
// ran (true) or the dirty-cell incremental path / the unchanged-membership
// cache (false). The first call after construction is always full.
func (s *BuildState) Rebuild() (*Result, bool, error) {
	if s.last != nil {
		return s.last, false, nil
	}
	s.o.obs.Gauge("build/workers").Set(1)
	in := newInstr(s.o, 2, s.n)
	defer in.finish()
	full := true
	var res *Result
	var err error
	switch {
	case !s.built || s.needFull:
		res, err = s.rebuildFull(in)
	case s.o.forceK > 0 && s.emptyK > 0:
		return nil, false, fmt.Errorf("core: forced k = %d leaves an interior grid cell empty", s.o.forceK)
	case s.o.forceK == 0 && s.kChanged():
		res, err = s.rebuildFull(in)
	default:
		full = false
		res, err = s.rebuildIncremental(in)
	}
	if err != nil {
		return nil, full, err
	}
	s.last = res
	return res, full, nil
}

// liveSlots returns the live slots in ascending order — the slot -> dense-id
// mapping of the exported tree.
func (s *BuildState) liveSlots() []int32 {
	slots := make([]int32, 0, s.n)
	for sl := 1; sl < len(s.present); sl++ {
		if s.present[sl] {
			slots = append(slots, int32(sl))
		}
	}
	return slots
}

// rebuildFull reconstructs everything from the slot membership with the
// pipeline's stages — grid choice, classifier, bucketing and election,
// wiring — keeping only the slot bookkeeping of its own.
func (s *BuildState) rebuildFull(in instr) (*Result, error) {
	endConv := in.phase("build/convert")
	slots := s.liveSlots()
	pts := s.geo.pts
	var scale float64
	for _, sl := range slots {
		r := pts[sl].R
		if !(r <= math.MaxFloat64) {
			endConv()
			return nil, fmt.Errorf("core: slot %d is at distance %v from the source: %w", sl, r, ErrNonFinite)
		}
		if r > scale {
			scale = r
		}
	}
	s.scale = scale
	endConv()

	res := &Result{Dim: 2, Variant: s.variant, MaxOutDegree: s.degCap, Scale: scale}
	if s.n == 0 || scale == 0 {
		// Degenerate geometry: stay unbuilt so the next rebuild re-evaluates
		// from scratch (there is no grid state worth retaining).
		s.built, s.needFull = false, false
		s.cert = Certificate{}
		clear(s.dirty)
		var err error
		if res.Tree, err = buildDegenerate(s.n, s.degCap); err != nil {
			return nil, err
		}
		return res, nil
	}

	endGrid := in.phase("build/grid")
	g, k, err := pickK(s.o, s.n, func(kMax int) (grid.PolarGrid, int, error) {
		k := grid.MaxFeasibleKAnalyticSlots(pts, slots, scale, kMax)
		return grid.PolarGrid{K: k, Scale: scale}, k, nil
	})
	endGrid()
	if err != nil {
		return nil, err
	}
	s.k, s.g = k, g
	s.g1 = grid.PolarGrid{K: k + 1, Scale: scale}

	endBucket := in.phase("build/bucketing")
	numCells := grid.NumCells(k)
	groups, tallies := bucketCells(1, numCells, slots, pts, g, classify2)
	// Member lists grow one append at a time, in ascending slot order, so
	// their capacities (which MemoryBytes reports) are those of a state
	// that met its members one by one.
	s.members = make([][]int32, numCells)
	for c := range s.members {
		for _, sl := range groups.order[groups.start[c]:groups.start[c+1]] {
			s.members[c] = append(s.members[c], sl)
			s.cellOf[sl] = int32(c)
		}
	}
	s.cnt1 = make([]int32, grid.NumCells(k+1))
	for _, sl := range slots {
		c1 := s.g1.CellOf(pts[sl])
		if r1, _ := grid.RingIdx(c1); r1 > 0 && r1 < s.g1.K {
			s.cnt1[c1]++
		}
	}
	s.emptyK = 0 // k is feasible by construction
	s.empty1 = 0
	for id := 1; id < grid.CellID(s.g1.K, 0); id++ { // interior cells of depth k+1
		if s.cnt1[id] == 0 {
			s.empty1++
		}
	}
	endBucket()

	sink := sinkOver(s.parent)
	endReps := in.phase("build/reps")
	s.reps = electReps(tallies)
	endReps()
	// The wiring permutes groups.order in place; the member lists above are
	// already copied out of it.
	wireCells(sink, k, groups, s.reps, newConn2(g, pts, sink), s.variant, 1, in)
	s.built, s.needFull = true, false
	clear(s.dirty)
	return s.exportResult(in, res, slots)
}

// rebuildIncremental re-runs representative selection and wiring for the
// dirty cells and their ancestor chain only; every other cell's edges are
// left exactly as the previous build wired them.
func (s *BuildState) rebuildIncremental(in instr) (*Result, error) {
	endMark := in.phase("build/dirty")
	// Close the dirty set over cell ancestors: a membership change in a cell
	// can move its representative, which its parent cell attaches; the
	// parent's rewiring can move the parent's relay choice, and so on up to
	// ring 0.
	inS := make(map[int]struct{}, 2*len(s.dirty)+1)
	var cells []int
	for d := range s.dirty {
		for c := d; ; {
			if _, ok := inS[c]; ok {
				break
			}
			inS[c] = struct{}{}
			cells = append(cells, c)
			if c == 0 {
				break
			}
			ring, idx := grid.RingIdx(c)
			c = grid.CellID(ring-1, grid.ParentCell(idx))
		}
	}
	sort.Ints(cells)
	// Reset exactly the parents the rewiring will reassign: all members of
	// the affected cells, plus the representatives of their out-of-set child
	// cells (attached by the affected parent, wired inside the clean child).
	for _, c := range cells {
		for _, sl := range s.members[c] {
			s.parent[sl] = unattachedNode
		}
		ring, idx := grid.RingIdx(c)
		if ring < s.k {
			c1, c2 := grid.ChildCells(idx)
			for _, ch := range [2]int{grid.CellID(ring+1, c1), grid.CellID(ring+1, c2)} {
				if _, ok := inS[ch]; ok {
					continue
				}
				if r := s.reps[ch]; r >= 0 {
					s.parent[r] = unattachedNode
				}
			}
		}
	}
	s.parent[0] = tree.NoParent
	endMark()
	in.obs.Gauge("build/dirty_cells").Set(float64(len(cells)))

	sink := &parentSink{parents: s.parent}
	conn := newConn2(s.g, s.geo.pts, sink)
	endReps := in.phase("build/reps")
	for _, c := range cells {
		if c != 0 {
			s.reps[c] = repOf(s.members[c], c, conn)
		}
	}
	endReps()
	endWire := in.phase("build/wire")
	var scratch []int32
	for _, c := range cells {
		scratch = append(scratch[:0], s.members[c]...)
		wireCellMembers(sink, s.k, c, scratch, s.reps, conn, s.variant, in)
	}
	endWire()
	clear(s.dirty)
	res := &Result{Dim: 2, Variant: s.variant, MaxOutDegree: s.degCap, Scale: s.scale}
	return s.exportResult(in, res, s.liveSlots())
}

// exportResult compacts the slot-space parent array into a dense validated
// tree and runs the pipeline's metrics phase over it.
func (s *BuildState) exportResult(in instr, res *Result, slots []int32) (*Result, error) {
	endExp := in.phase("build/export")
	rank := make([]int32, len(s.present))
	for i, sl := range slots {
		rank[sl] = int32(i + 1)
	}
	parents := make([]int32, len(slots)+1)
	parents[0] = tree.NoParent
	for i, sl := range slots {
		p := s.parent[sl]
		if p < 0 {
			return nil, fmt.Errorf("core: incomplete wiring (bug): slot %d unattached", sl)
		}
		parents[i+1] = rank[p]
	}
	t, err := tree.FromParents(0, parents, s.degCap)
	if err != nil {
		return nil, fmt.Errorf("core: incomplete wiring (bug): %w", err)
	}
	res.Tree = t
	endExp()

	measure(in, res, func(i, j int) float64 {
		pi, pj := s.geo.source, s.geo.source
		if i > 0 {
			pi = s.geo.pos(slots[i-1])
		}
		if j > 0 {
			pj = s.geo.pos(slots[j-1])
		}
		return pi.Dist(pj)
	}, s.reps, rank, s.k, s.g)
	s.cert = Certificate{Bound: res.Bound, Radius: res.Radius}
	return res, nil
}

// repOf re-elects one cell's representative over an explicit member list,
// by the rule electReps applies to a full build: the lowest (score, id)
// pair; -1 when empty.
func repOf(members []int32, cellID int, conn connector) int32 {
	if len(members) == 0 {
		return -1
	}
	best := members[0]
	bestScore := conn.repScore(cellID, best)
	for _, id := range members[1:] {
		if sc := conn.repScore(cellID, id); repBefore(sc, id, bestScore, best) {
			best, bestScore = id, sc
		}
	}
	return best
}

func insertSorted(a []int32, v int32) []int32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = v
	return a
}

func removeSorted(a []int32, v int32) []int32 {
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return append(a[:i], a[i+1:]...)
}
