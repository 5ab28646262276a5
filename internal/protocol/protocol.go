// Package protocol simulates the decentralized variant of Polar_Grid that
// the paper names as future work (§VI): nodes join and leave a live
// overlay, with tree maintenance driven by local decisions and
// point-to-point control messages instead of a central build.
//
// The session publishes the static grid geometry (scale and ring count k,
// sized for the expected membership). A joining node computes its own grid
// cell from its coordinates, then routes a JOIN along the representative
// core — source, ring-1 representative, ring-2 representative, ... — to
// its cell, where it attaches to the best local member with spare degree
// (or becomes the cell's representative if it is first). Leaves hand the
// orphaned children to their grandparent, walking up (and ultimately
// scanning from the source) when degrees are exhausted, and trigger a
// local representative re-election.
//
// The simulation counts control messages per operation, so experiments can
// verify the O(k) = O(log n) join cost, and exposes tree snapshots so
// delay quality can be compared against a fresh centralized build — the
// price of decentralization.
//
// The control plane does not assume a friendly network. Control traffic
// can be routed through a Transport (internal/faultplane provides a seeded
// injector) that drops, duplicates, delays, and crashes mid-operation;
// senders bound each exchange with timeouts and retries under exponential
// backoff with jitter, handlers are idempotent so duplicates and retried
// late deliveries are safe, and a heartbeat failure detector
// (MaintenanceRound) moves silent nodes through alive -> suspected ->
// confirmed-dead before repairing around them — false suspicion degrades
// to wasted messages, never a corrupted tree. With no transport attached
// the session behaves as the original analyzable model: every message
// delivered, exactly once, instantly.
//
// Remaining simplifications: there is no concurrency between operations,
// and the grid depth k is fixed at session start (a production system
// would re-deepen the grid as membership grows; Rebuild measures what that
// buys).
package protocol

import (
	"fmt"
	"math"
	"strconv"

	"omtree/internal/coords"
	"omtree/internal/core"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
	"omtree/internal/tree"
)

// Config fixes the published session parameters.
type Config struct {
	// Source is the multicast origin's position.
	Source geom.Point2
	// Scale is the published grid radius: joins farther than Scale from
	// the source are clamped into the outermost ring.
	Scale float64
	// K is the published grid depth; see SuggestK.
	K int
	// MaxOutDegree caps every node's children (>= 3: representatives
	// reserve two slots for core links, and at least one slot must remain
	// for local attachment).
	MaxOutDegree int

	// Transport, when non-nil, carries every control message from the
	// first join on (equivalent to calling SetTransport right after New).
	Transport Transport
	// Faults tunes retries and failure detection for Transport. The zero
	// value selects DefaultFaultConfig(); setting it without a Transport
	// is a configuration error (there is no network to be unreliable).
	Faults FaultConfig
	// Admission throttles joins per maintenance round; the zero value
	// admits everything (see SetAdmission).
	Admission Admission
	// Drift tunes the kinetic control loop (re-estimation cadence,
	// certificate degradation threshold, repair policy) used once a
	// coordinate drift model is attached with SetDrift. The zero value
	// disables the loop.
	Drift DriftConfig
	// Snapshot schedules periodic crash-safe state snapshots at the end
	// of maintenance rounds (DESIGN.md §2k). The zero value disables
	// them; WriteSnapshot remains available for on-demand snapshots.
	Snapshot SnapshotConfig
}

// maxK caps the published grid depth: the session allocates O(2^K) cell
// slots, and SuggestK stays far below this for any plausible membership.
const maxK = 30

// Validate rejects configurations New would misbehave on, with one
// descriptive error per field.
func (c Config) Validate() error {
	if !c.Source.IsFinite() {
		return fmt.Errorf("protocol: source position (%v, %v): %w", c.Source.X, c.Source.Y, core.ErrNonFinite)
	}
	if math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) || c.Scale <= 0 {
		return fmt.Errorf("protocol: scale %v must be positive and finite", c.Scale)
	}
	if err := core.CheckScale(c.Scale); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	if c.K <= 0 {
		return fmt.Errorf("protocol: grid depth K = %d must be positive (see SuggestK)", c.K)
	}
	if c.K > maxK {
		return fmt.Errorf("protocol: grid depth K = %d > %d would allocate 2^%d cells", c.K, maxK, c.K+1)
	}
	if c.MaxOutDegree < 3 {
		return fmt.Errorf("protocol: max out-degree %d < 3 (2 core slots + 1 local)", c.MaxOutDegree)
	}
	if c.Faults != (FaultConfig{}) {
		if c.Transport == nil {
			return fmt.Errorf("protocol: fault tuning configured with a nil transport (nothing to be unreliable; set Config.Transport)")
		}
		if err := c.Faults.validate(); err != nil {
			return err
		}
	}
	if err := c.Admission.validate(); err != nil {
		return err
	}
	if err := c.Drift.validate(); err != nil {
		return err
	}
	if err := c.Snapshot.validate(); err != nil {
		return err
	}
	return nil
}

// SuggestK returns a grid depth for an expected membership, mirroring the
// static algorithm's empirical k ~ 0.86 log2(n) choice (Figure 6) less a
// ring of slack for the thinner occupancy of a dynamic session.
func SuggestK(expectedN int) int {
	if expectedN < 4 {
		return 1
	}
	k := int(0.8*math.Log2(float64(expectedN))) - 1
	if k < 1 {
		k = 1
	}
	return k
}

// node is the per-member protocol state.
type node struct {
	pos      geom.Point2
	polar    geom.Polar
	cell     int32
	parent   int32 // -1 for source, -2 when dead
	children []int32
	delay    float64 // measured source-to-node delay (nodes observe this)
	// susp counts consecutive heartbeat rounds in which every monitor of
	// this node observed silence (the failure detector's state: 0 alive,
	// >= FaultConfig.SuspectAfter suspected, >= ConfirmAfter confirmed).
	susp int
	// pmiss counts consecutive rounds in which this node's own probe of
	// its parent link went unanswered — the per-link view that lets a cut
	// subtree notice it lost the root side even while its island-internal
	// links stay healthy (susp only tracks whether ANY monitor heard us).
	pmiss int
	// isCoord marks the interim coordinator of a degraded-mode island: a
	// subtree root serving joins locally until reconciliation re-grafts it.
	isCoord bool
}

const (
	parentNone int32 = -1
	parentDead int32 = -2
)

// Overlay is a live decentralized session.
type Overlay struct {
	cfg   Config
	g     grid.PolarGrid
	nodes []node
	// live[id] reports whether node id is alive; it is the only copy of
	// liveness and always as long as nodes. It lives apart from node
	// because the round's hottest loops (heartbeat probes, the live-tree
	// walk) test it at random ids, and one byte per node stays in cache
	// where a whole node struct does not.
	live []bool
	// members lists alive node ids per cell (the source is not a member of
	// cell 0; it anchors it).
	members [][]int32
	// reps[cell] is the representative node (-1 none), the one record of
	// the role (see isRep). reps[0] stays -1: the source anchors ring 0.
	reps  []int32
	alive int // live members, the source included: the true entries of live

	// transport carries control messages when set; nil is the reliable
	// default (every message delivered, exactly once, instantly).
	transport Transport
	fcfg      FaultConfig

	// lastSides tracks the transport's partition state across maintenance
	// rounds so split/heal transitions land once on the timeline.
	lastSides int

	// Join admission control (see SetAdmission); adm.Enabled() == false
	// means every join is admitted immediately.
	adm       Admission
	admTokens float64
	pending   []geom.Point2

	// reg is the attached metrics registry (see Observe); nil by default.
	reg *obs.Registry

	// rec is the attached event recorder (see Trace); nil by default.
	rec *trace.Recorder
	// flight is the attached flight recorder (see SetFlight); nil by
	// default. MaintenanceRound ticks it and the transport's round clock
	// once per round unless flightShared is set: a group of a GroupSet
	// shares both clocks, and MaintenanceAll ticks each once per sweep.
	flight       *flight.Recorder
	flightShared bool
	// ttrans is the transport's traced view, cached by SetTransport so
	// exchangeN pays one nil check instead of a type assertion per attempt
	// (nil when the transport cannot emit verdict events).
	ttrans TracedTransport
	// curTrace is the trace id of the operation in flight (operations are
	// strictly sequential; 0 outside any operation).
	curTrace uint32

	// bs is the retained centralized build state behind Rebuild: it keeps
	// the bucketing arrays and grid geometry of the previous rebuild so
	// that a rebuild after light churn only rewires the dirty cells. Node
	// ids double as build-state slots.
	bs *core.BuildState

	// drift is the attached coordinate drift model (see SetDrift); nil by
	// default. driftRounds counts maintenance rounds since the last
	// re-estimation sweep.
	drift       *coords.DriftModel
	driftRounds int

	// kill is the attached crash schedule (see SetKillPlan); nil by
	// default. Instrumented code crosses named kill points and aborts
	// mid-operation when the plan fires — the chaos half of the
	// crash-recovery suite (DESIGN.md §2k).
	kill *faultplane.KillPlan

	// Stats accumulates control-message totals for the session.
	Stats SessionStats
}

// SessionStats aggregates control traffic.
type SessionStats struct {
	Joins, Leaves int
	JoinMessages  int
	LeaveMessages int
	RepElections  int
	FallbackScans int // joins/reattaches that needed the global scan
	Rebuilds      int
	// IncrementalRebuilds counts the Rebuilds served from the retained
	// build state (dirty cells rewired, clean cells untouched) rather than
	// from scratch; those skip the per-member coordinate reports.
	IncrementalRebuilds int
	RebuildMessages     int
	AbruptFailures      int

	// Message-attempt accounting at the transport choke point. Every
	// attempt a control exchange pushes through exchangeN is counted here
	// exactly once, and each is either delivered or lost — Audit enforces
	// Attempts == AttemptsDelivered + MessagesLost, so any stats drift in a
	// future code path fails loudly instead of silently skewing experiments.
	Attempts          int // message attempts sent (reliable and faulty alike)
	AttemptsDelivered int // attempts the destination actually handled

	// Degradation accounting under an unreliable transport.
	Retries             int // re-sent message attempts
	Timeouts            int // exchanges that exhausted their retry budget
	MessagesLost        int // attempts eaten (or over-delayed) by the network
	DuplicatesDelivered int // attempts whose handler ran twice
	InjectedCrashes     int // nodes killed mid-operation by the transport
	Heartbeats          int // failure-detector probes sent
	MaintenanceRounds   int
	MaintenanceMessages int
	FalseSuspects       int // live nodes that reached the suspected state
	FalseConfirms       int // live nodes wrongly confirmed dead
	OrphanNodeRounds    int // sum over rounds of live members still dark

	// Partition-tolerance accounting.
	DegradedSubtrees int // subtrees that cut over to degraded mode
	CoordElections   int // interim coordinators elected for islands
	IslandMerges     int // island pairs merged while degraded
	Reconciliations  int // islands re-grafted after a heal
	DegradedJoins    int // joins served by an island while degraded

	// Join-admission accounting.
	JoinsQueued    int // joins parked in the pending queue
	QueuedAdmitted int // queued joins later admitted by a round
	JoinsShed      int // joins rejected with a retry-after hint

	// Kinetic-drift accounting (see DESIGN.md §2h).
	DriftReestimates     int // coordinate re-estimation sweeps run
	DriftedNodes         int // refreshed members whose coordinates had moved
	DriftMessages        int // coordinate reports and cell handoffs
	LocalRepairs         int // certificate-triggered dirty-cell repairs
	FullRebuildFallbacks int // local repairs escalated to a full rebuild

	// Crash-recovery accounting (see DESIGN.md §2k). A member that dies
	// and re-enters via Restart counts one Rejoin, never a second Join —
	// the regression suite pins this against double counting.
	Rejoins        int // dead members re-entering via Restart
	SnapshotWrites int // snapshots encoded and handed to a writer
	Restores       int // sessions reconstructed from a snapshot
}

// OpStats describes one operation's cost.
type OpStats struct {
	// Messages is the control messages this operation generated, retries
	// included.
	Messages int
	// CoreHops is the representative-chain length walked by a join.
	CoreHops int
	// Retries counts re-sent attempts (zero under a reliable transport).
	Retries int
	// Timeouts counts exchanges that exhausted their retry budget.
	Timeouts int
	// Lost counts attempts the network ate or delayed past the timeout.
	Lost int
	// Duplicates counts attempts delivered (and handled) twice.
	Duplicates int
	// SimTime is the simulated wall time the operation spent waiting on
	// deliveries and timeouts.
	SimTime float64
	// Degraded marks an operation served by a degraded-mode island rather
	// than the root side (a bounded-radius local attach under an interim
	// coordinator; see DESIGN.md §2f).
	Degraded bool
}

// New starts a session containing only the source (node 0).
func New(cfg Config) (*Overlay, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := grid.NewPolarGrid(cfg.K, cfg.Scale)
	if err != nil {
		return nil, err
	}
	o := &Overlay{
		cfg:     cfg,
		g:       g,
		members: make([][]int32, g.NumCells()),
		reps:    make([]int32, g.NumCells()),
		fcfg:    DefaultFaultConfig(),
	}
	if cfg.Transport != nil {
		fc := cfg.Faults
		if fc == (FaultConfig{}) {
			fc = DefaultFaultConfig()
		}
		if err := o.SetTransport(cfg.Transport, fc); err != nil {
			return nil, err
		}
	}
	if err := o.SetAdmission(cfg.Admission); err != nil {
		return nil, err
	}
	// Validate guarantees MaxOutDegree >= 3, so the build state cannot
	// reject the degree here.
	bs, err := core.NewBuildState(cfg.Source, core.WithMaxOutDegree(cfg.MaxOutDegree))
	if err != nil {
		return nil, err
	}
	o.bs = bs
	for i := range o.reps {
		o.reps[i] = -1
	}
	o.nodes = append(o.nodes, node{
		pos:    cfg.Source,
		polar:  geom.Polar{},
		cell:   0,
		parent: parentNone,
	})
	o.live = append(o.live, true)
	o.alive = 1
	return o, nil
}

// N returns the number of alive members (including the source).
func (o *Overlay) N() int { return o.alive }

// residual returns how many more children node id may accept, honoring the
// two core slots a representative reserves for future child-cell
// representatives.
func (o *Overlay) residual(id int32) int {
	r := o.cfg.MaxOutDegree - len(o.nodes[id].children)
	if id == 0 || o.isRep(id) {
		// Reserved core slots not yet consumed: count attached children
		// that are themselves core links (child-cell reps) against the
		// reservation rather than the local budget.
		reserved := 2 - o.coreChildren(id)
		if reserved < 0 {
			reserved = 0
		}
		r -= reserved
	}
	if r < 0 {
		return 0
	}
	return r
}

// coreChildren counts children of id that are representatives of other
// cells (core links).
func (o *Overlay) coreChildren(id int32) int {
	c := 0
	for _, ch := range o.nodes[id].children {
		if o.isRep(ch) && o.nodes[ch].cell != o.nodes[id].cell {
			c++
		}
	}
	return c
}

// isRep reports whether id represents its grid cell.
func (o *Overlay) isRep(id int32) bool { return o.reps[o.nodes[id].cell] == id }

// attach wires child under parent and sets the child's measured delay.
// A fresh link starts with a clean per-link silence counter.
func (o *Overlay) attach(child, parent int32) {
	o.nodes[child].parent = parent
	o.nodes[child].pmiss = 0
	o.nodes[parent].children = append(o.nodes[parent].children, child)
	o.nodes[child].delay = o.nodes[parent].delay +
		o.nodes[parent].pos.Dist(o.nodes[child].pos)
}

// refreshDelays recomputes measured delays in the subtree under id after a
// reattachment moved it.
func (o *Overlay) refreshDelays(id int32) {
	stack := []int32{id}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range o.nodes[v].children {
			o.nodes[c].delay = o.nodes[v].delay + o.nodes[v].pos.Dist(o.nodes[c].pos)
			stack = append(stack, c)
		}
	}
}

// detachChild removes child from parent's list.
func (o *Overlay) detachChild(parent, child int32) {
	cs := o.nodes[parent].children
	for i, c := range cs {
		if c == child {
			cs[i] = cs[len(cs)-1]
			o.nodes[parent].children = cs[:len(cs)-1]
			return
		}
	}
}

// Join adds a member at position p and returns its node id.
//
// With admission control enabled (SetAdmission), a join arriving when the
// token bucket is empty is parked on the pending queue (ErrJoinQueued; a
// coming MaintenanceRound admits it) or, when the queue is full, shed with
// a deterministic *RetryAfter hint. During a partition a join that cannot
// reach the source may still be served by a degraded-mode island — the
// returned OpStats then has Degraded set.
func (o *Overlay) Join(p geom.Point2) (int, OpStats, error) {
	if !p.IsFinite() {
		return 0, OpStats{}, fmt.Errorf("protocol: join at (%v, %v): %w", p.X, p.Y, core.ErrNonFinite)
	}
	if o.adm.Enabled() {
		if o.admTokens >= 1 {
			o.admTokens--
		} else if len(o.pending) < o.adm.QueueLimit {
			o.pending = append(o.pending, p)
			o.Stats.JoinsQueued++
			o.emit("protocol/join_queued", -1, -1, "pending="+strconv.Itoa(len(o.pending)))
			return 0, OpStats{}, ErrJoinQueued
		} else {
			o.Stats.JoinsShed++
			hint := o.retryAfterRounds()
			o.emit("protocol/shed", -1, -1, "retry_after="+strconv.Itoa(hint))
			return 0, OpStats{}, &RetryAfter{Rounds: hint}
		}
	}
	return o.join(p)
}

// join runs the admission-free join protocol (see Join).
func (o *Overlay) join(p geom.Point2) (int, OpStats, error) {
	var st OpStats
	polar := p.PolarAround(o.cfg.Source)
	if polar.R > o.cfg.Scale {
		// Outside the published disk: clamp into the outer ring (the
		// static algorithm would rescale; a live session cannot).
		polar.R = o.cfg.Scale
	}
	cell := int32(o.g.CellOf(polar))

	id := int32(len(o.nodes))
	endOp := o.beginOp("protocol/join", id, "cell="+strconv.Itoa(int(cell)))
	joined := false
	defer func() {
		o.Stats.JoinMessages += st.Messages
		switch {
		case joined && st.Degraded:
			endOp("degraded")
		case joined:
			endOp("ok")
		default:
			endOp("refused")
		}
	}()
	o.nodes = append(o.nodes, node{pos: p, polar: polar, cell: cell, parent: parentDead})
	o.live = append(o.live, false)

	// Route along the representative core: JOIN to the source, then one
	// hop per ring toward the target cell.
	if !o.exchange(id, 0, &st) {
		// The root side is unreachable — possibly a partition rather than
		// plain loss. A degraded-mode island may still be able to serve
		// this join locally.
		if parent := o.degradedAttach(id, &st); parent >= 0 {
			o.admit(id)
			o.Stats.Joins++
			o.Stats.DegradedJoins++
			joined = true
			return int(id), st, nil
		}
		o.dropJoiner(id)
		return 0, st, fmt.Errorf("protocol: join could not reach the source")
	}
	ring, idx := grid.RingIdx(int(cell))
	var routeOK bool
	st.CoreHops, routeOK = o.coreRoute(ring, idx, id, &st)

	if o.reps[cell] < 0 && cell != 0 {
		// First member of the cell: become its representative and attach
		// to the nearest occupied ancestor cell's representative.
		anchor := o.ancestorAnchor(ring, idx, p, &st)
		if o.exchange(id, anchor, &st) {
			o.reps[cell] = id
			o.attach(id, anchor)
		} else {
			// The anchor is unreachable: join as an ordinary member via a
			// descent from the source. The cell stays representative-less
			// until a maintenance round elects one.
			parent := o.descendParent(p, o.residual, &st)
			if parent < 0 || !o.exchange(id, parent, &st) {
				o.dropJoiner(id)
				return 0, st, fmt.Errorf("protocol: join could not reach a parent")
			}
			o.attach(id, parent)
		}
	} else {
		// Attach to the best member of the cell with spare degree; the
		// representative answers the query with its member list (1 msg),
		// then one handshake.
		parent := int32(-1)
		queried := routeOK
		if queried {
			if rep := o.reps[cell]; rep > 0 {
				queried = o.exchange(id, rep, &st)
			}
		}
		if queried {
			parent = o.bestLocalParent(cell, p)
		}
		if parent < 0 {
			// Cell saturated (or its representative unreachable): descend
			// from the source toward the joiner.
			parent = o.descendParent(p, o.residual, &st)
			if parent < 0 {
				o.dropJoiner(id)
				return 0, st, fmt.Errorf("protocol: overlay out of capacity")
			}
		}
		ok := o.exchange(id, parent, &st)
		if !ok {
			// The chosen parent went dark mid-join; fall back to a fresh
			// descent before giving up.
			if alt := o.descendParent(p, o.residual, &st); alt >= 0 {
				parent = alt
				ok = o.exchange(id, parent, &st)
			}
		}
		if !ok {
			o.dropJoiner(id)
			return 0, st, fmt.Errorf("protocol: join could not reach a parent")
		}
		o.attach(id, parent)
	}

	o.admit(id)
	o.Stats.Joins++
	joined = true
	return int(id), st, nil
}

// admit makes an attached joiner a live member of its cell: the live bit,
// the cell's member list, the live count and drift tracking. Joins and
// restarts share it.
func (o *Overlay) admit(id int32) {
	n := &o.nodes[id]
	o.live[id] = true
	o.members[n.cell] = append(o.members[n.cell], id)
	o.alive++
	o.trackDrift(id, n.pos)
}

// dropJoiner rolls back a refused join: the joiner's slot, always the
// last, leaves the node table and the liveness column together.
func (o *Overlay) dropJoiner(id int32) {
	o.nodes = o.nodes[:id]
	o.live = o.live[:id]
}

// coreRoute forwards the JOIN along the representative chain from the
// source to the target cell: one hop per ring whose ancestor cell has a
// live representative (empty or dark ancestor cells are skipped — the
// chain shortcuts them). ok reports whether every hop got through; a
// broken route means the joiner never reached its cell's representative
// and must fall back to a descent.
func (o *Overlay) coreRoute(ring, idx int, joiner int32, st *OpStats) (hops int, ok bool) {
	ok = true
	for r, i := ring, idx; r >= 1; r-- {
		if rep := o.reps[grid.CellID(r, i)]; rep >= 0 && o.live[rep] {
			hops++
			if !o.exchange(joiner, rep, st) {
				ok = false
			}
		}
		i = grid.ParentCell(i)
	}
	return hops, ok
}

// ancestorAnchor finds the attachment point for a new cell representative:
// the representative of the nearest occupied ancestor cell (the source if
// none), preferring one with spare degree and escalating to the fallback
// scan otherwise.
func (o *Overlay) ancestorAnchor(ring, idx int, pos geom.Point2, st *OpStats) int32 {
	i := grid.ParentCell(idx)
	for r := ring - 1; r >= 1; r-- {
		if rep := o.reps[grid.CellID(r, i)]; rep >= 0 && o.live[rep] {
			if o.residualAsCoreParent(rep) > 0 {
				return rep
			}
			// The natural anchor is full; keep walking up.
			st.Messages++
		}
		i = grid.ParentCell(i)
	}
	if o.residualAsCoreParent(0) > 0 {
		return 0
	}
	// Source full: descend toward the new representative's position.
	if p := o.descendParent(pos, o.residualAsCoreParent, st); p >= 0 {
		return p
	}
	return 0 // the source always accepts a core child as a last resort
}

// residualAsCoreParent is the degree room for accepting a NEW CORE child:
// reserved slots count as available here.
func (o *Overlay) residualAsCoreParent(id int32) int {
	r := o.cfg.MaxOutDegree - len(o.nodes[id].children)
	if r < 0 {
		return 0
	}
	return r
}

// bestLocalParent returns the live cell member (or, for ring 0, the
// source) with spare degree minimizing the child's resulting delay: the
// parent's measured source delay plus the new unicast hop — both locally
// known (the parent observes its own delay, the joiner can ping the
// candidates). The caller accounts for the member-list query message.
func (o *Overlay) bestLocalParent(cell int32, p geom.Point2) int32 {
	best := int32(-1)
	bestScore := math.Inf(1)
	consider := func(id int32) {
		if !o.nodeAlive(id) || o.residual(id) == 0 {
			return
		}
		score := o.nodes[id].delay + o.driftDist(id, p)
		if score < bestScore {
			best, bestScore = id, score
		}
	}
	if cell == 0 {
		consider(0)
	}
	for _, id := range o.members[cell] {
		consider(id)
	}
	return best
}

// descendParent walks down the live tree from the source toward position
// p — the classic overlay join descent — and returns the deepest suitable
// node: at each step it compares the current node against its child
// closest to p, descending while the child is closer, and attaches at the
// nearest node along the walk that has room. One message per hop, so the
// cost is the tree depth, O(log n). room selects the degree test (local
// slots vs core slots).
func (o *Overlay) descendParent(p geom.Point2, room func(int32) int, st *OpStats) int32 {
	v := int32(0)
	lastWithRoom := int32(-1)
	lastScore := math.Inf(1)
	for hop := 0; hop <= len(o.nodes); hop++ {
		if !o.exchange(0, v, st) {
			break // this probe went dark; settle for what the walk has
		}
		vd := o.driftDist(v, p)
		// Rank candidates by the delay the child would end up with, not by
		// raw proximity: a near node at the end of a long chain is a worse
		// parent than a slightly farther low-delay one. Distances are
		// staleness-weighted when a drift model is attached.
		if score := o.nodes[v].delay + vd; o.live[v] && room(v) > 0 && score < lastScore {
			lastWithRoom, lastScore = v, score
		}
		best := int32(-1)
		bestD := math.Inf(1)
		for _, c := range o.nodes[v].children {
			if !o.live[c] {
				continue // never descend into a dead subtree
			}
			if d := o.driftDist(c, p); d < bestD {
				best, bestD = c, d
			}
		}
		if best < 0 || bestD >= vd {
			break
		}
		v = best
	}
	if lastWithRoom >= 0 {
		return lastWithRoom
	}
	return o.scanParent(room, st)
}

// scanParent is the last-resort breadth-first scan for any live node with
// room, over the live-connected component only (capacity hanging under an
// undetected dead node is unusable until repair frees it).
func (o *Overlay) scanParent(room func(int32) int, st *OpStats) int32 {
	o.Stats.FallbackScans++
	queue := []int32{0}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		st.Messages++
		if room(v) > 0 {
			return v
		}
		for _, c := range o.nodes[v].children {
			if o.live[c] {
				queue = append(queue, c)
			}
		}
	}
	return -1
}

// dist is the Euclidean distance between two polar positions (law of
// cosines around the shared origin).
func (o *Overlay) dist(a, b geom.Polar) float64 {
	d2 := a.R*a.R + b.R*b.R - 2*a.R*b.R*math.Cos(a.Theta-b.Theta)
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// Leave removes a member (not the source). Its children are handed to the
// grandparent, walking up while degrees are exhausted; if the leaver
// represented its cell, the survivors elect a new representative (the
// member closest to the cell's inner arc, as in the static algorithm).
//
// Under an unreliable transport the goodbye itself can vanish: the leaver
// is gone either way, but if no neighbor heard it the overlay keeps its
// state wired — indistinguishable from a crash — until the failure
// detector confirms the silence and repairs around it. An orphan whose
// reattachment handshake fails likewise stays put for the next
// maintenance round.
func (o *Overlay) Leave(id int) (OpStats, error) {
	var st OpStats
	if id <= 0 || id >= len(o.nodes) {
		return st, fmt.Errorf("protocol: no such node %d", id)
	}
	n := &o.nodes[id]
	if !o.live[id] {
		return st, fmt.Errorf("protocol: node %d already left", id)
	}

	endOp := o.beginOp("protocol/leave", int32(id), "")
	outcome := "ok"
	defer func() { endOp(outcome) }()

	// The leaver stops forwarding now, whatever the network does to its
	// goodbye.
	o.live[id] = false
	o.alive--
	o.Stats.Leaves++
	o.forgetDrift(int32(id))

	parent := n.parent
	if !o.exchange(int32(id), parent, &st) { // goodbye to parent
		o.Stats.LeaveMessages += st.Messages
		outcome = "ghost"
		return st, nil // nobody heard; the detector will clean the ghost
	}
	o.detachChild(parent, int32(id))
	o.removeMember(n.cell, int32(id))
	o.resign(int32(id), &st)

	// Reattach orphans: grandparent first, then walk up, then fallback.
	orphans := n.children
	var kept []int32
	for _, c := range orphans {
		st.Messages++ // orphan notices and contacts the grandparent chain
		if !o.adoptOrphan(c, parent, &st) {
			kept = append(kept, c)
		}
	}
	n.children = kept
	if len(kept) == 0 {
		n.parent = parentDead
	} else {
		n.parent = parentNone // floating; maintenance finishes the cleanup
	}
	o.Stats.LeaveMessages += st.Messages
	return st, nil
}

// Snapshot freezes the overlay as a tree over the alive members, returning
// the tree, the positions (indexed by snapshot id), and the mapping from
// snapshot ids back to overlay ids. Snapshot id 0 is the source.
//
// After FailAbrupt (or fault-injected crashes and lost goodbyes), run
// DetectAndRepair — or MaintenanceRound until Audit passes — before
// snapshotting: until then, live members may still hang under dead
// parents (they haven't noticed yet), and the snapshot would be
// disconnected.
func (o *Overlay) Snapshot() (*tree.Tree, []geom.Point2, []int, error) {
	newID := make([]int, len(o.nodes))
	oldID := make([]int, 0, o.alive)
	for i := range o.nodes {
		if o.live[i] {
			newID[i] = len(oldID)
			oldID = append(oldID, i)
		} else {
			newID[i] = -1
		}
	}
	b, err := tree.NewBuilder(len(oldID), 0, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	// Attach top-down with an explicit stack.
	stack := []int32{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range o.nodes[v].children {
			if !o.live[c] {
				continue // an unrepaired ghost; its subtree is dark
			}
			b.MustAttach(newID[c], newID[v])
			stack = append(stack, c)
		}
	}
	t, err := b.Build()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("protocol: overlay is not a spanning tree (unrepaired failures?): %w", err)
	}
	pts := make([]geom.Point2, len(oldID))
	for i, old := range oldID {
		pts[i] = o.nodes[old].pos
	}
	return t, pts, oldID, nil
}

// Radius returns the current maximum source-to-member delay.
func (o *Overlay) Radius() (float64, error) {
	t, pts, _, err := o.Snapshot()
	if err != nil {
		return 0, err
	}
	return t.Radius(func(i, j int) float64 { return pts[i].Dist(pts[j]) }), nil
}

// MaxOutDegreeUsed returns the largest child count in the live overlay.
func (o *Overlay) MaxOutDegreeUsed() int {
	m := 0
	for i := range o.nodes {
		if o.live[i] && len(o.nodes[i].children) > m {
			m = len(o.nodes[i].children)
		}
	}
	return m
}

// isDescendant reports whether a lies in the subtree rooted at root.
func (o *Overlay) isDescendant(a, root int32) bool {
	for v := a; v >= 0; v = o.nodes[v].parent {
		if v == root {
			return true
		}
	}
	return false
}

// moveSubtree reattaches node (with its subtree) under target.
func (o *Overlay) moveSubtree(node, target int32) {
	o.detachChild(o.nodes[node].parent, node)
	o.attach(node, target)
	o.refreshDelays(node)
}

// Rebuild replaces the overlay's tree wholesale with a fresh centralized
// Polar_Grid build over the current membership — the periodic
// source-coordinated refresh a deployed session can afford every few
// minutes. It resets the delay to the centralized optimum, forgetting all
// join-order damage; joins and leaves continue to work against the rebuilt
// state. The first rebuild (and any after the verified grid depth changes)
// runs from scratch and costs O(n) control messages — every member reports
// its coordinates and receives its new parent. Subsequent rebuilds reuse
// the retained build state: only the grid cells touched by churn are
// rewired, and only members whose parent actually changed are messaged,
// while the resulting tree stays byte-identical to a from-scratch build.
func (o *Overlay) Rebuild() (OpStats, error) {
	var st OpStats
	endOp := o.beginOp("protocol/rebuild", -1, "")
	outcome := "ok"
	defer func() { endOp(outcome) }()

	// Flush unrepaired ghosts first: the wholesale rewire below would
	// otherwise leave dead nodes holding stale child lists into the new
	// tree. The source-coordinated refresh knows the true membership, so
	// this is free of messages.
	for i := 1; i < len(o.nodes); i++ {
		n := &o.nodes[i]
		if o.live[i] {
			continue
		}
		n.parent = parentDead
		n.children = nil
		n.isCoord = false
		n.susp = 0
		n.pmiss = 0
	}
	for cell := range o.members {
		ms := o.members[cell][:0]
		for _, m := range o.members[cell] {
			if o.live[m] {
				ms = append(ms, m)
			}
		}
		o.members[cell] = ms
	}

	// Collect alive members (excluding the source) in id order, and bring
	// the retained build state in sync. Diffing membership here — rather
	// than hooking every join/leave/crash site — keeps the churn paths
	// oblivious to the build state and is naturally correct across join
	// rollbacks and abrupt deaths: whatever alive says now is the truth.
	// Each transition dirties only the grid cell it touches.
	o.bs.SetInstruments(o.reg, o.rec)
	o.bs.SetFlight(o.flight)
	memberIDs := make([]int32, 0, o.alive-1)
	for i := 1; i < len(o.nodes); i++ {
		alive := o.live[i]
		if alive {
			memberIDs = append(memberIDs, int32(i))
		}
		switch {
		case alive && !o.bs.Present(i):
			o.bs.Add(i, o.nodes[i].pos)
		case !alive && o.bs.Present(i):
			o.bs.Remove(i)
		}
	}

	res, full, err := o.bs.Rebuild()
	if err != nil {
		outcome = "failed"
		return st, fmt.Errorf("protocol: rebuild: %w", err)
	}
	// Kill point: the build state is refreshed but the overlay's wiring is
	// not — a crash here leaves the two out of sync, exactly what restore
	// from the last snapshot must recover from.
	if err := o.killpoint("rebuild/rewire"); err != nil {
		outcome = "killed"
		return st, err
	}
	if full {
		// From-scratch refresh: every member reports its coordinates.
		st.Messages += len(memberIDs)
	}

	// Rewire: tree node 0 is the source, tree node j >= 1 is memberIDs[j-1]
	// (the build state exports live slots in ascending order, matching the
	// id-order collection above).
	toOverlay := func(treeNode int32) int32 {
		if treeNode == 0 {
			return 0
		}
		return memberIDs[treeNode-1]
	}
	// Message accounting before the state is clobbered: a full rebuild
	// assigns every member its parent; an incremental one only messages
	// members whose parent actually moved.
	for j := 1; j < res.Tree.N(); j++ {
		if full || o.nodes[toOverlay(int32(j))].parent != toOverlay(int32(res.Tree.Parent(j))) {
			st.Messages++ // parent assignment
		}
	}
	o.nodes[0].children = o.nodes[0].children[:0]
	for _, id := range memberIDs {
		n := &o.nodes[id]
		n.children = n.children[:0]
		n.isCoord = false // the rebuild re-wires every island under the source
		n.pmiss = 0
	}
	for j := 1; j < res.Tree.N(); j++ {
		o.attach(toOverlay(int32(j)), toOverlay(int32(res.Tree.Parent(j))))
	}

	// Refresh the per-cell representative bookkeeping for future joins.
	// Ring 0 keeps none: the source anchors it.
	for cell := range o.members {
		o.reps[cell] = -1
		if cell == 0 || len(o.members[cell]) == 0 {
			continue
		}
		o.reps[cell] = o.closestToArc(int32(cell), func(int32) bool { return true })
	}
	o.Stats.Rebuilds++
	if !full {
		o.Stats.IncrementalRebuilds++
	}
	o.Stats.RebuildMessages += st.Messages
	return st, nil
}

// FailAbrupt kills a member without any goodbye messages — a crash rather
// than a graceful leave. The dead node's state stays in place until
// DetectAndRepair notices it; packets would meanwhile be lost by its
// subtree (see netsim for that accounting).
func (o *Overlay) FailAbrupt(id int) error {
	if id <= 0 || id >= len(o.nodes) {
		return fmt.Errorf("protocol: no such node %d", id)
	}
	if !o.live[id] {
		return fmt.Errorf("protocol: node %d already gone", id)
	}
	o.live[id] = false
	o.alive--
	o.Stats.AbruptFailures++
	o.forgetDrift(int32(id))
	o.emit("protocol/fail_abrupt", int32(id), -1, "")
	return nil
}

// DetectAndRepair sweeps the overlay for dead members still wired in —
// each live child of a dead parent notices via a heartbeat timeout (one
// message) — and repairs exactly as a graceful leave would: orphans climb
// to the nearest live ancestor with room, dead representatives are
// re-elected. It is the whole-overlay eager form of the per-round
// MaintenanceRound detector: no suspicion countdown, every ghost handled
// in one sweep. Returns the operation stats; idempotent once everything is
// repaired (a second sweep costs nothing).
func (o *Overlay) DetectAndRepair() (OpStats, error) {
	var st OpStats
	endOp := o.beginOp("protocol/detect_repair", -1, "")
	defer func() { endOp("") }()
	for id := 1; id < len(o.nodes); id++ {
		n := &o.nodes[id]
		if o.live[id] || n.parent == parentDead && len(n.children) == 0 {
			continue
		}
		// Heartbeat detection: every live child pings and times out.
		for _, c := range n.children {
			if o.live[c] {
				st.Messages++
			}
		}
		before := st.Messages
		o.repairDead(int32(id), &st)
		o.Stats.LeaveMessages += st.Messages - before
	}
	return st, nil
}

// Ghosts counts dead members whose state is still wired into the overlay:
// a dead node holding children, still linked under a parent, or still
// listed in its cell's membership. Zero once every failure and lost
// goodbye has been fully repaired — the reconciliation acceptance tests
// assert this post-heal.
func (o *Overlay) Ghosts() int {
	inMembers := make(map[int32]bool)
	for cell := range o.members {
		for _, m := range o.members[cell] {
			if !o.live[m] {
				inMembers[m] = true
			}
		}
	}
	ghosts := 0
	for id := 1; id < len(o.nodes); id++ {
		n := &o.nodes[id]
		if o.live[id] {
			continue
		}
		if n.parent != parentDead || len(n.children) > 0 || inMembers[int32(id)] {
			ghosts++
		}
	}
	return ghosts
}
