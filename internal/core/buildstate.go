package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"omtree/internal/bisect"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
	"omtree/internal/tree"
)

// BuildState is the incremental counterpart of Build2: it retains the grid
// geometry, the per-cell membership lists and the parent array of the last
// build, so that a rebuild after churn only has to re-run the wiring for the
// cells whose membership changed (plus the parent of each whose
// representative changed, since the parent attaches it). Representatives
// follow each join and leave as it happens; a rebuild re-elects only the
// cells whose representative left. The result is always byte-identical to a
// from-scratch Build2 over the current membership — the differential and
// fuzz suites enforce this — because all wiring decisions are functions of
// per-cell membership and geometry only: a cell whose membership did not
// change, and whose children's representatives did not change, wires
// exactly as before.
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
// state then only ever writes its private membership. All remaining
// per-group cell state is copy-on-write with respect to the retained build:
// rebuilds wire a cell in scratch, never in its member list, and only the
// rewired cells' retained parents are written at all.
//
// What the state holds is sized by its members, not by its slot universe
// (DESIGN.md §2g): membership is one bit per slot with a rank index, and the
// last build's parents sit in a dense array in that build's node order. A
// member's cell is never stored; Remove re-derives it from the position,
// which cannot change while the slot is live.
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
// A rebuild runs on the pipeline's worker pool: a full one sized as a
// one-shot build of the same membership would be (WithParallelism, or
// automatically from parallelBuildThreshold members), an incremental one
// by the members of the cells it rewires (churnParallelThreshold); every
// worker count returns the same tree, certificate and checkpoint bytes.
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

	live slotSet // slot -> currently a member; slot 0 (the source) always
	n    int     // live receiver slots

	scale float64
	k     int
	g     grid.PolarGrid
	g1    grid.PolarGrid // depth k+1, for growth detection

	members [][]int32 // cell -> live slots, ascending
	reps    []int32   // cell -> representative slot, -1 if empty (reps[0] = -1)

	// The last build's wiring in its node order: node i >= 1 is slot
	// wired[i-1] (ascending), and parent[i] is that node's parent as a slot
	// (parent[0] = tree.NoParent). Parents stay slots so that an incremental
	// rebuild carries retained entries over to new node ids unchanged.
	wired  []int32
	parent []int32

	cnt1   []int32 // depth-k+1 interior cell populations
	emptyK int     // empty interior cells at depth k
	empty1 int     // empty interior cells at depth k+1

	// dirty maps each cell whose membership changed since the last build
	// to its pending representative, kept per churn event so that a
	// rebuild re-elects only where it must: the cell's representative over
	// its current members (the last build's, kept, or a joiner that beat
	// it), or repRescan once the one it held left. reps keeps the last
	// build's values until the rebuild applies these.
	dirty    map[int]int32
	needFull bool
	built    bool

	cert Certificate // eq. 7 certificate of the last completed rebuild

	last *Result // cache: valid until the next Add/Remove/Move

	// legacy holds the cell and parent columns of a decoded checkpoint that
	// the layout above does not reproduce; EncodeTo writes them verbatim
	// until the first mutation drops them (see decodeBuildState).
	legacy *legacyColumns
}

// NewBuildState returns an empty incremental build around the given source.
// It accepts the same options as Build2, WithParallelism included: every
// Rebuild, full or incremental, fans out over that many workers (the
// default picks by size, see BuildState), and any worker count returns the
// same tree.
func NewBuildState(source geom.Point2, opts ...Option) (*BuildState, error) {
	if !source.IsFinite() {
		return nil, fmt.Errorf("core: source %v: %w", source, ErrNonFinite)
	}
	s, err := newBuildState(opts)
	if err != nil {
		return nil, err
	}
	s.geo = &SlotGeometry{source: source, pts: []geom.Polar{{}}}
	s.live = newSlotSet(1)
	return s, nil
}

// NewBuildStateShared returns an empty incremental build borrowing geo,
// which must stay immutable for the state's lifetime. Membership changes go
// through AddSlot/Remove; Add and Move (which would write positions) panic.
// Any number of states — one per multicast group — may borrow one geometry
// concurrently, each paying for one membership bit per slot and otherwise
// only for its members.
func NewBuildStateShared(geo *SlotGeometry, opts ...Option) (*BuildState, error) {
	if geo == nil {
		return nil, fmt.Errorf("core: NewBuildStateShared needs a geometry")
	}
	s, err := newBuildState(opts)
	if err != nil {
		return nil, err
	}
	s.geo, s.shared = geo, true
	s.live = newSlotSet(geo.Slots())
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
		dirty:   make(map[int]int32),
	}, nil
}

// repRescan marks a dirty cell whose pending representative left: the
// rebuild re-elects it over the cell's members.
const repRescan int32 = -3

// pendingRep is the representative cell will have at the next rebuild as
// churn has tracked it: the dirty map's entry, or the last build's for a
// cell whose membership has not changed.
func (s *BuildState) pendingRep(cell int) int32 {
	if p, ok := s.dirty[cell]; ok {
		return p
	}
	return s.reps[cell]
}

// N returns the number of live receiver slots.
func (s *BuildState) N() int { return s.n }

// Present reports whether slot is currently a live member.
func (s *BuildState) Present(slot int) bool {
	return slot > 0 && s.live.has(slot)
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

// MemoryBytes estimates the state's private resident size: the membership
// bitset and its rank index, the member lists, the per-cell arrays and the
// last build's node order and parents. The geometry is counted separately,
// since shared geometries amortize across states.
func (s *BuildState) MemoryBytes() int64 {
	n := s.live.memoryBytes() + 4*int64(cap(s.wired)+cap(s.parent)+len(s.reps)+len(s.cnt1))
	for _, m := range s.members {
		n += 4 * int64(cap(m))
	}
	if s.legacy != nil {
		n += 4 * int64(len(s.legacy.cellOf)+len(s.legacy.parent))
	}
	return n
}

// ensureSlot grows the membership and an owned geometry to cover slot; a
// shared state's slots are fixed at construction.
func (s *BuildState) ensureSlot(slot int) {
	if s.shared {
		if slot >= s.geo.Slots() {
			panic(fmt.Sprintf("core: slot %d outside the shared geometry's %d slots", slot, s.geo.Slots()))
		}
		return
	}
	for len(s.geo.pts) <= slot {
		s.geo.hosts = append(s.geo.hosts, geom.Point2{})
		s.geo.pts = append(s.geo.pts, geom.Polar{})
	}
	s.live.grow(len(s.geo.pts))
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
	if s.live.has(slot) {
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
	if s.live.has(slot) {
		panic(fmt.Sprintf("core: BuildState.AddSlot slot %d already present", slot))
	}
	s.addLive(slot)
}

// addLive makes a slot (whose geometry is in place) live, maintaining the
// incremental bookkeeping. Before the first build that is one bit.
func (s *BuildState) addLive(slot int) {
	s.live.add(slot)
	s.n++
	s.last, s.legacy = nil, nil
	if !s.built || s.needFull {
		return
	}
	c := s.geo.pts[slot]
	if !(c.R <= s.scale) {
		// The grid scale is the outermost radius: it just grew, which moves
		// every dividing circle (or the radius is NaN, which the full
		// rebuild rejects).
		s.needFull = true
		return
	}
	cell := s.g.CellOf(c)
	s.members[cell] = insertSorted(s.members[cell], int32(slot))
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
	// The joiner takes the cell over when it beats the pending
	// representative by electReps's rule; the source anchors ring 0.
	rep := s.pendingRep(cell)
	if cell != 0 && rep != repRescan {
		ring, j := grid.RingIdx(cell)
		seg := s.g.Segment(ring, j)
		if rep < 0 || repBefore(repScore2(c, seg), int32(slot), repScore2(s.geo.pts[rep], seg), rep) {
			rep = int32(slot)
		}
	}
	s.dirty[cell] = rep
}

// Remove unregisters the member at the given slot.
func (s *BuildState) Remove(slot int) {
	if !s.Present(slot) {
		panic(fmt.Sprintf("core: BuildState.Remove slot %d not present", slot))
	}
	s.live.remove(slot)
	s.n--
	s.last, s.legacy = nil, nil
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
	// A live slot's position never changes (Move is Remove then Add), so
	// the cell it was filed under is the one its position classifies to.
	// Only a tampered checkpoint files it elsewhere; the full rebuild that
	// then runs refiles every member.
	cell := s.g.CellOf(c)
	list, ok := removeSorted(s.members[cell], int32(slot))
	if !ok {
		s.needFull = true
		return
	}
	s.members[cell] = list
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
	// A leaver other than the pending representative cannot change it.
	rep := s.pendingRep(cell)
	if rep == int32(slot) {
		rep = repRescan
	}
	s.dirty[cell] = rep
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
	s.legacy = nil
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

// rebuildFull reconstructs everything from the slot membership with the
// pipeline's stages — grid choice, classifier, bucketing and election, the
// cell pass — keeping only the slot bookkeeping of its own. It runs on the
// workers a one-shot build of the membership would: the k search,
// bucketing and the cell pass fan out over them; the scale and the member
// lists with the depth-k+1 counts are single passes too light to split.
func (s *BuildState) rebuildFull(in instr) (*Result, error) {
	workers := s.o.effectiveWorkers(s.n, parallelBuildThreshold)
	in.obs.Gauge("build/workers").Set(float64(workers))
	endConv := in.phase("build/convert")
	slots := s.live.reindex(s.n)
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
	endConv()
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	s.scale = scale

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
		k := grid.MaxFeasibleKAnalyticSlots(pts, slots, scale, kMax, workers)
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
	groups, tallies := bucketCells(workers, numCells, slots, pts, g, classify2)
	// Member lists grow one append at a time, in ascending slot order, so
	// their capacities (which MemoryBytes reports and checkpoints size by)
	// are those of a state that met its members one by one. The same pass
	// counts the depth-k+1 interior populations: rings 1..k there, which
	// hold no member of the outermost ring here, and of ring 0 only those
	// outside cell 0 there.
	s.members = make([][]int32, numCells)
	s.cnt1 = make([]int32, grid.NumCells(k+1))
	for c := range s.members {
		ring, _ := grid.RingIdx(c)
		inner := ring < k
		for _, sl := range groups.order[groups.start[c]:groups.start[c+1]] {
			s.members[c] = append(s.members[c], sl)
			if inner {
				if c1 := cellBelow(s.g1, ring, pts[sl]); c1 != 0 {
					s.cnt1[c1]++
				}
			}
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

	// A fresh wiring, in the previous build's buffer when it fits.
	if cap(s.parent) < len(slots)+1 {
		s.parent = make([]int32, len(slots)+1)
	}
	s.parent, s.wired = s.parent[:len(slots)+1], slots
	s.parent[0] = tree.NoParent
	endReps := in.phase("build/reps")
	s.reps = electReps(tallies)
	endReps()
	s.built, s.needFull = true, false
	clear(s.dirty)
	return s.wire(in, res, workers, nil)
}

// cellBelow returns g1.CellOf(p) for the grid g1 one ring deeper than the
// grid in which p lies in ring ring. The deeper grid's dividing circles are
// the shallower one's plus one more inside circle 0, at the same radii,
// which grid.RingOf compares against exactly; so a point of ring r >= 1
// lies in ring r+1 of g1, and only ring 0 needs its radius looked up again.
func cellBelow(g1 grid.PolarGrid, ring int, p geom.Polar) int {
	r1 := ring + 1
	if ring == 0 {
		r1 = g1.RingOf(p.R)
	}
	return grid.CellID(r1, g1.SegIndexOf(r1, p.Theta))
}

// churnParallelThreshold is the member count of the rewired cells below
// which an incremental rebuild stays serial under the automatic worker
// selection. A churn rebuild wires only those cells, so their members, not
// the group's, measure the work a second worker would share.
const churnParallelThreshold = 4096

// rebuildIncremental applies the dirty cells' pending representatives,
// re-electing only those marked repRescan, and re-runs the wiring for the
// cells whose wiring can have changed: the dirty cells and the parent of
// each whose representative changed. Every other cell keeps exactly the
// edges the previous build wired, which the cell pass loads and measures
// again. The pass runs on the worker pool once the rewired cells hold
// churnParallelThreshold members.
func (s *BuildState) rebuildIncremental(in instr) (*Result, error) {
	endReps := in.phase("build/reps")
	cells, rewire := s.applyReps(newConn2(s.g, s.geo.pts, nil))
	endReps()

	endMark := in.phase("build/dirty")
	s.carryOver(s.live.reindex(s.n))
	rewired := 0
	for _, c := range cells {
		rewired += len(s.members[c])
	}
	endMark()
	in.obs.Gauge("build/dirty_cells").Set(float64(len(cells)))
	workers := s.o.effectiveWorkers(rewired, churnParallelThreshold)
	in.obs.Gauge("build/workers").Set(float64(workers))
	clear(s.dirty)
	res := &Result{Dim: 2, Variant: s.variant, MaxOutDegree: s.degCap, Scale: s.scale}
	return s.wire(in, res, workers, rewire)
}

// applyReps installs each dirty cell's pending representative, re-electing
// the cells marked repRescan, and returns the cells whose wiring can have
// changed, ascending, and a mark for each. A cell's wiring depends only on
// its members, its representative and its child cells' representatives,
// so these are the dirty cells plus the parent of each dirty cell whose
// representative changed; a clean cell keeps its members and so its
// representative.
func (s *BuildState) applyReps(conn connector) ([]int, []bool) {
	rewire := make([]bool, len(s.reps))
	for c, rep := range s.dirty {
		rewire[c] = true
		if c == 0 {
			continue // the source anchors ring 0
		}
		if rep == repRescan {
			rep = repOf(s.members[c], c, conn)
		}
		if rep != s.reps[c] {
			ring, idx := grid.RingIdx(c)
			rewire[grid.CellID(ring-1, grid.ParentCell(idx))] = true
		}
		s.reps[c] = rep
	}
	var cells []int
	for c, marked := range rewire {
		if marked {
			cells = append(cells, c)
		}
	}
	return cells, rewire
}

// carryOver moves the last build's parent entries to the node ids of slots,
// the live slots in ascending order, and makes slots the new node order: a
// slot still live keeps its entry under its new id, a slot that joined
// since starts unattached, and the entries of slots that left are dropped.
// It works in place in two passes, the first moving entries only down (it
// compacts away the departed) and the second only up (it spreads the kept
// entries out to their new ids, top first).
func (s *BuildState) carryOver(slots []int32) {
	kept := s.wired[:0]
	for i, sl := range s.wired {
		if s.live.has(int(sl)) {
			s.parent[len(kept)+1] = s.parent[i+1]
			kept = append(kept, sl)
		}
	}
	if n := len(slots) + 1; cap(s.parent) < n {
		s.parent = append(make([]int32, 0, n), s.parent[:len(kept)+1]...)
	}
	s.parent = s.parent[:len(slots)+1]
	i := len(kept)
	for j := len(slots); j >= 1; j-- {
		if i > 0 && kept[i-1] == slots[j-1] {
			s.parent[j] = s.parent[i]
			i--
		} else {
			s.parent[j] = unattachedNode
		}
	}
	s.wired = slots
}

// wire runs the cell pass over the state's cells on the given workers,
// wiring the cells rewire marks (every cell when it is nil) and measuring
// the others from their retained parents; a wired cell's parents land in
// s.parent as slots. The result's tree numbers nodes by rank among the
// live slots. Nothing it allocates is sized by the slot universe.
func (s *BuildState) wire(in instr, res *Result, workers int, rewire []bool) (*Result, error) {
	parents := make([]int32, len(s.wired)+1)
	parents[0] = tree.NoParent
	g := s.g
	p := &cellPass[geom.Point2, geom.Polar]{
		k: s.k, variant: s.variant, degCap: s.degCap,
		lists: s.members, reps: s.reps, coords: s.geo.pts,
		source: s.geo.source, points: s.geo.hosts, live: &s.live, edges: edges2,
		conn: func(c []geom.Polar, a bisect.Attacher) connector {
			return newConn2(g, c, a)
		},
		rewire: rewire, parents: parents, slotParents: s.parent, scratch: &scratch2,
	}
	if err := p.finish(in, res, p.run(workers, in), g); err != nil {
		return nil, err
	}
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

// removeSorted removes v from the ascending list a, reporting whether a
// held it.
func removeSorted(a []int32, v int32) ([]int32, bool) {
	i, ok := slices.BinarySearch(a, v)
	if !ok {
		return a, false
	}
	return append(a[:i], a[i+1:]...), true
}
