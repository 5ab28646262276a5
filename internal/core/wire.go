package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"omtree/internal/bisect"
	"omtree/internal/grid"
	"omtree/internal/par"
	"omtree/internal/tree"
)

// connector abstracts the dimension-specific pieces of the core wiring: the
// polar radius of a node, the representative score, and the in-cell
// Bisection runs. Ids index the coordinates the connector was made over:
// the whole build's for repOf, one cell's scratch for the wiring.
type connector interface {
	// repScore ranks members as cell representatives: the distance to the
	// center of the cell's inner arc ("the point that is closest to the
	// center on the inner arc of the segment", §III-B). Smaller is better.
	repScore(cellID int, id int32) float64
	// relayScore ranks members as the next-ring relay of the binary
	// variant: the distance to the center of the cell's outer arc, which
	// lies between the two child-cell representatives. Smaller is better.
	relayScore(cellID int, id int32) float64
	// pointDist2 is the squared Euclidean distance between two nodes.
	pointDist2(a, b int32) float64
	// connectNatural runs the full-degree Bisection over the member nodes
	// idx inside the given grid cell with src as local source.
	connectNatural(idx []int32, src int32, cellID int)
	// connectBinary is the out-degree-2 Bisection counterpart.
	connectBinary(idx []int32, src int32, cellID int)
}

// cellGroups is the receivers-by-cell index: CSR over global cell ids.
// order holds receiver ids (>= 1); cell c owns order[start[c]:start[c+1]].
type cellGroups struct {
	start []int32
	order []int32
}

// unattachedNode marks a node nothing has attached yet: in a cell's scratch
// before its wiring runs, and among a BuildState's retained parents for a
// slot that joined since the last build.
const unattachedNode int32 = -2

// foreignNode is the local parent of a node whose retained parent lies
// outside the cell being measured.
const foreignNode int32 = -3

// cellPass is one wiring pass over a grid's cells (DESIGN.md §2c): every
// worker takes a cell once its parent cell is done, wires it in its own
// scratch, proves and measures it there, and writes each parent once into
// the result. What the workers share is read-only except for disjoint
// entries: the parents of the nodes each cell attaches, and each cell's
// representative delay and done flag.
//
// Member ids are those of the pass's id space: node ids in a one-shot build
// (0 the source, i >= 1 the receiver at points[i-1]), slots in a BuildState,
// whose node ids are their ranks in live.
type cellPass[P, C any] struct {
	k       int
	variant Variant
	degCap  int

	groups cellGroups // the members of each cell, unless lists is set
	lists  [][]int32
	reps   []int32 // cell -> representative id, -1 for none (and cell 0)
	coords []C     // by id; coords[0] is the source's
	source P
	points []P      // id i >= 1 is at points[i-1]
	live   *slotSet // nil when ids are node ids
	// edges sets edge[v] to the length of v's parent edge, from
	// pts[parent[v]] to pts[v], for every v whose parent is in pts: one
	// loop per cell, concrete for each dimension.
	edges func(pts []P, parent []int32, edge []float64)
	conn  func(coords []C, a bisect.Attacher) connector

	// rewire marks the cells an incremental rebuild wires; every other cell
	// loads its retained parents from slotParents. nil wires every cell.
	rewire []bool
	// parents receives the tree by node id. slotParents, when set, receives
	// the same wiring with parents as ids: a BuildState's retained parents.
	parents, slotParents []int32
	// scratch holds cellScratch[P, C] between passes: scratch2, scratch3
	// or scratchD.
	scratch *sync.Pool

	repDelay []float64     // cell -> its representative's delay
	done     []atomic.Bool // cell -> wired and measured
}

// The cell scratch of finished passes, one pool per point and coordinate
// type, so a pass takes room its worker needs from earlier builds, rebuilds
// and groups instead of allocating it: a cell's scratch is sized by the
// cell, and one cell of a clustered group can hold half its members.
var (
	scratch2 sync.Pool // *cellScratch[geom.Point2, geom.Polar]: Build2, BuildState
	scratch3 sync.Pool // *cellScratch[geom.Point3, geom.Spherical]
	scratchD sync.Pool // *cellScratch[geom.Vec, geom.Hyperspherical]
)

// cellScratch is one worker's room for one cell at a time. Local id i
// stands for member i of the cell's ascending member list; after the
// members come the source (in ring 0 only, where it is the local source)
// and then the representatives of the child cells, which the cell attaches
// but which belong to the cells below.
type cellScratch[P, C any] struct {
	ids    []int32 // the members as the wiring permutes them
	key    []int32 // local id -> member id
	node   []int32 // local id -> node id, when ids are slots
	coords []C
	pts    []P
	parent []int32   // local id -> local parent id
	delay  []float64 // parent-edge lengths, then delays from the source
	state  []int8    // the proof's walk: 0 unseen, 1 proven, 2 on the path
	kids   []int32   // children per local node
	stack  []int32
	conn   connector // wires into this scratch

	radius  float64 // the largest delay this worker measured
	err     error   // the first cell this worker found broken, errCell
	errCell int
	busyNs  int64 // pool gauges, kept only when observed
	cellCnt int64
}

var _ bisect.Attacher = (*cellScratch[int, int])(nil)

// fit makes room for cells of n local nodes, with a quarter more so that a
// slowly growing cell does not reallocate on every rebuild.
func (sc *cellScratch[P, C]) fit(n int) bool {
	if len(sc.key) >= n {
		return false
	}
	n += n / 4
	sc.ids, sc.key, sc.node = make([]int32, n), make([]int32, n), make([]int32, n)
	sc.coords, sc.pts = make([]C, n), make([]P, n)
	sc.parent, sc.delay, sc.state = make([]int32, n), make([]float64, n), make([]int8, n)
	sc.kids, sc.stack = make([]int32, n), make([]int32, 0, n)
	return true
}

// MustAttach wires local child under local parent. Only the wiring of the
// scratch's own cell writes here.
func (sc *cellScratch[P, C]) MustAttach(child, parent int) {
	if sc.parent[child] != unattachedNode {
		panic(fmt.Sprintf("core: node %d attached twice (wiring bug)", sc.key[child]))
	}
	sc.parent[child] = int32(parent)
}

// members returns cell c's member ids, ascending.
func (p *cellPass[P, C]) members(c int) []int32 {
	if p.lists != nil {
		return p.lists[c]
	}
	return p.groups.order[p.groups.start[c]:p.groups.start[c+1]]
}

// run wires and measures every cell over the worker pool and returns the
// workers' scratch, which finish reads and hands back to the pool. A cell
// waits for its parent cell's done flag, never for a ring: cells are handed
// out in id order, parents first, so the wait ends. A cell that finds its
// wiring broken still marks itself done. One worker takes the cells in id
// order, which keeps serial trace timelines byte-stable; the pool gauges
// are published only when several workers run.
func (p *cellPass[P, C]) run(workers int, in instr) []*cellScratch[P, C] {
	endWire := in.phase("build/wire")
	defer endWire()
	in = in.wiring()
	numCells := grid.NumCells(p.k)
	p.repDelay = make([]float64, numCells)
	p.done = make([]atomic.Bool, numCells)
	pool := make([]*cellScratch[P, C], workers)
	for w := range pool {
		if pool[w], _ = p.scratch.Get().(*cellScratch[P, C]); pool[w] == nil {
			pool[w] = new(cellScratch[P, C])
		}
	}

	timed := workers > 1 && in.obs.Enabled()
	wireStart := time.Now()
	par.Cells(workers, numCells, func(w, c int) {
		ring, idx := grid.RingIdx(c)
		if ring > 0 {
			up := &p.done[grid.CellID(ring-1, grid.ParentCell(idx))]
			for !up.Load() {
				runtime.Gosched()
			}
		}
		sc := pool[w]
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		members := p.members(c)
		if sc.fit(len(members)+3) || sc.conn == nil {
			sc.conn = p.conn(sc.coords, sc)
		}
		if err := p.cell(sc, c, ring, idx, members, in); err != nil && sc.err == nil {
			sc.err, sc.errCell = err, c
		}
		if timed {
			sc.busyNs += int64(time.Since(t0))
			sc.cellCnt++
		}
		p.done[c].Store(true)
	})
	if !timed {
		return pool
	}
	// Per-worker busy time and cell counts feed the utilization and skew
	// gauges; par.Cells's wait publishes them to this goroutine.
	wall := time.Since(wireStart).Seconds()
	var busyTotal, maxCells int64
	for _, sc := range pool {
		busyTotal += sc.busyNs
		maxCells = max(maxCells, sc.cellCnt)
	}
	reg := in.obs
	if wall > 0 {
		reg.Gauge("build/wire/worker_utilization").Set(
			float64(busyTotal) / 1e9 / (wall * float64(workers)))
	}
	mean := float64(numCells) / float64(workers)
	reg.Gauge("build/wire/cells_per_worker_max").Set(float64(maxCells))
	reg.Gauge("build/wire/cells_per_worker_skew").Set(float64(maxCells) / mean)
	return pool
}

// cell wires, or loads from the retained parents, grid cell c (ring ring,
// index idx, holding members) in sc, then proves it and measures it: the
// core edges from the cell's representative down to the aligned next-ring
// representatives, and the in-cell Bisection over the remaining members.
// Each node is attached by exactly one cell — members by their own cell,
// representatives by the parent-ring cell — so distinct cells write
// disjoint parent entries.
func (p *cellPass[P, C]) cell(sc *cellScratch[P, C], c, ring, idx int, members []int32, in instr) error {
	var repID int32 // the source anchors ring 0
	if ring > 0 {
		if repID = p.reps[c]; repID < 0 {
			return nil // an empty outermost-ring cell
		}
	}
	wire := p.rewire == nil || p.rewire[c]
	// One pass loads the members, the cell's representative among them:
	// their ids and caller points and, to wire them, their coordinates.
	m := len(members)
	key, pts, parent := sc.key[:m], sc.pts[:m], sc.parent[:m]
	points, anchor := p.points, m
	if wire {
		coords, ids, all := sc.coords[:m], sc.ids[:m], p.coords
		for i, id := range members {
			key[i], pts[i], coords[i] = id, points[id-1], all[id]
			ids[i], parent[i] = int32(i), unattachedNode
			if id == repID {
				anchor = i
			}
		}
	} else {
		for i, id := range members {
			key[i], pts[i] = id, points[id-1]
			if id == repID {
				anchor = i
			}
		}
	}
	key, pts, parent = sc.key, sc.pts, sc.parent
	own := m
	if ring == 0 {
		key[m], pts[m], sc.coords[m] = 0, p.source, p.coords[0]
		own++
	} else if anchor == m {
		return fmt.Errorf("core: incomplete wiring (bug): cell %d: representative %d is not a member", c, repID)
	}
	n := own
	var below [2]int
	if ring < p.k {
		c1, c2 := grid.ChildCells(idx)
		for _, ch := range [2]int{grid.CellID(ring+1, c1), grid.CellID(ring+1, c2)} {
			if r := p.reps[ch]; r >= 0 {
				below[n-own] = ch
				key[n], pts[n], parent[n] = r, p.points[r-1], unattachedNode
				n++
			}
		}
	}
	node := key[:n]
	if p.live != nil {
		node = sc.node[:n]
		for i, id := range key[:n] {
			node[i] = p.live.rank(int(id))
		}
	}

	if wire {
		parent[anchor] = tree.NoParent
		var childReps [2]int32
		for i := range n - own {
			childReps[i] = int32(own + i)
		}
		in.cell(c, repID)
		sp := in.bisect.Start()
		wireCellMembers(sc, ring, c, sc.ids[:m], int32(anchor), childReps[:n-own], sc.conn, p.variant)
		sp.End()
	} else {
		for i := range n {
			parent[i] = localParent(p.slotParents[node[i]], members, ring)
		}
		parent[anchor] = tree.NoParent
	}

	var anchorDelay float64
	if ring > 0 {
		anchorDelay = p.repDelay[c]
	}
	if v, what := p.prove(sc, anchor, own, n, anchorDelay, node, wire && p.slotParents != nil); v >= 0 {
		if q := parent[v]; !wire && q == foreignNode {
			if id := p.slotParents[node[v]]; !p.live.has(int(id)) {
				what = fmt.Sprintf("hangs under departed slot %d", id)
			}
		}
		return fmt.Errorf("core: incomplete wiring (bug): cell %d: node %d %s", c, node[v], what)
	}
	for i, ch := range below[:n-own] {
		p.repDelay[ch] = sc.delay[own+i]
	}
	return nil
}

// localParent maps a retained parent id to its local id in the cell whose
// ascending member list is members: foreignNode outside the cell, and the
// sentinels and out-of-range values as they are, for the proof to report.
func localParent(id int32, members []int32, ring int) int32 {
	switch {
	case id == 0 && ring == 0:
		return int32(len(members)) // the source, ring 0's local source
	case id == 0:
		return foreignNode
	case id < 0:
		return id
	}
	if i, ok := slices.BinarySearch(members, id); ok {
		return int32(i)
	}
	return foreignNode
}

// prove checks the wiring of the n local nodes in sc.parent, measures
// them and writes their parents out. Every node but the anchor, the cell's
// local source, must hang under one of the cell's own nodes (local ids
// below own: the members, and the source in ring 0), so no member of this
// cell is wired under another cell, and the child cells' representatives
// stay leaves here; every node must reach the anchor without a cycle; and
// no node may have more than degCap children, which it can gain only from
// this cell. It takes each parent-edge length from edges, then walks up
// from every node, checking each parent as it climbs, and, unwinding,
// counts each node under its parent, adds its parent's delay to its edge —
// the same IEEE addition whatever the order nodes are visited in, starting
// from the anchor's delay — and writes its parent by node id into
// p.parents, and as an id into p.slotParents when slots is set. On success
// sc.delay holds every node's delay from the source and sc.radius has grown
// to the largest of them. On failure it returns the local id of a node at
// fault and what is wrong with it, having written some parents; else -1.
func (p *cellPass[P, C]) prove(sc *cellScratch[P, C], anchor, own, n int, anchorDelay float64, node []int32, slots bool) (int, string) {
	parent, delay, state := sc.parent[:n], sc.delay[:n], sc.state[:n]
	kids, key := sc.kids[:own], sc.key[:n]
	clear(kids)
	clear(state)
	p.edges(sc.pts[:n], parent, delay)
	delay[anchor] = anchorDelay
	state[anchor] = 1
	radius := sc.radius
	if anchorDelay > radius {
		radius = anchorDelay
	}
	for v := range n {
		u := int32(v)
		stack := sc.stack[:0]
		for state[u] == 0 {
			q := parent[u]
			if uint32(q) >= uint32(own) {
				switch {
				case q == unattachedNode:
					return int(u), "is unattached"
				case q == foreignNode || (q >= int32(own) && q < int32(n)):
					return int(u), "hangs under a node outside its cell"
				default:
					return int(u), fmt.Sprintf("has parent %d, out of range", q)
				}
			}
			state[u] = 2
			stack = append(stack, u)
			u = q
		}
		if state[u] == 2 {
			return int(u), "is on a cycle"
		}
		for j := len(stack) - 1; j >= 0; j-- {
			x := stack[j]
			q := parent[x]
			if kids[q]++; int(kids[q]) > p.degCap {
				return int(q), fmt.Sprintf("has more than %d children", p.degCap)
			}
			state[x] = 1
			delay[x] = delay[q] + delay[x]
			if delay[x] > radius {
				radius = delay[x]
			}
			p.parents[node[x]] = node[q]
			if slots {
				p.slotParents[node[x]] = key[q]
			}
		}
	}
	sc.radius = radius
	return -1, ""
}

// wireCellMembers wires one cell over local ids. members is the cell's full
// membership, its representative included outside ring 0, and is shuffled
// in place; rep is the cell's local source (its representative, or the
// source in ring 0), and childReps are the (at most two) representatives
// of the aligned next-ring cells.
func wireCellMembers(b bisect.Attacher, ring, id int, members []int32, rep int32, childReps []int32, conn connector, variant Variant) {
	if ring > 0 {
		// Exclude the representative (attached by its parent ring's cell):
		// swap it to the front and drop it. The order this leaves is the
		// order the fan-outs partition and the k-ary fallback wires.
		for p, v := range members {
			if v == rep {
				members[0], members[p] = members[p], members[0]
				break
			}
		}
		members = members[1:]
	}

	switch variant {
	case VariantNatural:
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(rep))
		}
		conn.connectNatural(members, rep, id)
	case VariantHybrid:
		// Natural core wiring, binary in-cell fan-out: 2 + 2 = 4.
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(rep))
		}
		conn.connectBinary(members, rep, id)
	default:
		wireBinaryCell(b, conn, rep, members, childReps, id)
	}
}

// wireBinaryCell realizes the three cases of §IV-A for one cell in the
// out-degree-2 variant. rep is attached; members excludes rep; childReps
// are the (at most two) representatives of the aligned next-ring cells.
func wireBinaryCell(b bisect.Attacher, conn connector, rep int32, members, childReps []int32, cellID int) {
	if len(childReps) == 0 {
		// Leaf cell: no relay duty, the representative is a plain local
		// source.
		conn.connectBinary(members, rep, cellID)
		return
	}
	switch len(members) {
	case 0:
		// Case 1: the representative relays the next ring itself.
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(rep))
		}
	case 1:
		// Case 2: the single extra member relays the next ring.
		b.MustAttach(int(members[0]), int(rep))
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(members[0]))
		}
	default:
		// Case 3: one member becomes the in-cell Bisection source, another
		// (nearest the outer arc center, between the two child-cell
		// representatives) relays the next ring.
		bi := 0
		bScore := conn.relayScore(cellID, members[0])
		for p := 1; p < len(members); p++ {
			if s := conn.relayScore(cellID, members[p]); s < bScore || (s == bScore && members[p] < members[bi]) {
				bi, bScore = p, s
			}
		}
		relay := members[bi]
		members[bi] = members[len(members)-1]
		members = members[:len(members)-1]

		ai := 0
		aD := conn.pointDist2(members[0], rep)
		for p := 1; p < len(members); p++ {
			if d := conn.pointDist2(members[p], rep); d < aD || (d == aD && members[p] < members[ai]) {
				ai, aD = p, d
			}
		}
		local := members[ai]
		members[ai] = members[len(members)-1]
		members = members[:len(members)-1]

		b.MustAttach(int(local), int(rep))
		b.MustAttach(int(relay), int(rep))
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(relay))
		}
		conn.connectBinary(members, local, cellID)
	}
}
