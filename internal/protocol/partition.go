package protocol

import (
	"math"
	"strconv"

	"omtree/internal/grid"
	"omtree/internal/invariant"
	"omtree/internal/tree"
)

// Partition tolerance. A network partition cuts some subtrees off from the
// root side without killing anyone, so the per-node suspicion machine
// (which clears on ANY heard link) never fires for an island whose internal
// links stay healthy. Detection instead rides the per-link pmiss counter:
// a node whose own parent probes have gone unanswered for ConfirmAfter
// consecutive rounds first checks the source directly — if the root side
// answers, the silence was a false alarm (or a single dead link) and the
// node re-homes; if the root side is dark too, the node assumes the cut,
// detaches, and becomes the interim coordinator of a degraded-mode island
// that keeps serving joins locally within a bounded radius. Reachable
// islands merge (the coordinator closer to the source wins the election),
// and once the source answers again a reconciliation pass re-grafts each
// island under its proper polar-grid anchor, sweeps ghosts, and dedups
// membership, converging back to one audited tree. See DESIGN.md §2f.

// RoundTicker is implemented by transports with a virtual round clock
// (faultplane.Plane): MaintenanceRound advances it once per round, which
// is what drives scheduled partition events.
type RoundTicker interface {
	Tick()
}

// PartitionedTransport is implemented by transports that can report the
// current partition state (faultplane.Plane); the session uses it to place
// split/heal transition events on the timeline.
type PartitionedTransport interface {
	Partitioned() int
}

// coordinators returns the live interim coordinators in ascending id order.
func (o *Overlay) coordinators() []int32 {
	var cs []int32
	for id := 1; id < len(o.nodes); id++ {
		if o.live[id] && o.nodes[id].isCoord {
			cs = append(cs, int32(id))
		}
	}
	return cs
}

// Islands reports the number of degraded-mode islands currently serving
// joins apart from the root side (zero once reconciliation has re-grafted
// everything).
func (o *Overlay) Islands() int { return len(o.coordinators()) }

// degradedRadius is the attach bound for degraded-mode joins and island
// grafts: candidates whose resulting island-relative delay would exceed it
// are refused, so an island cannot grow arbitrarily deep chains that blow
// the radius bound once re-grafted.
func (o *Overlay) degradedRadius() float64 {
	if o.fcfg.DegradedRadius > 0 {
		return o.fcfg.DegradedRadius
	}
	return 2 * o.cfg.Scale
}

// partitionPhase is the degraded-mode step of every maintenance round:
// heal detection and reconciliation for existing islands, cut detection
// and coordinator elections for freshly orphaned subtrees, then island
// merging. Runs in O(n) with no messages when nothing is cut. A non-nil
// error is a scheduled kill firing mid-reconciliation (never a protocol
// failure) — the caller abandons the round as a simulated crash.
func (o *Overlay) partitionPhase(ms *MaintenanceStats, st *OpStats) error {
	// 1. Heal detection: every island that existed at the start of the
	// round probes the source; islands cut this very round skip the probe
	// (their failed source check is what just degraded them).
	for _, c := range o.coordinators() {
		if !o.live[c] || !o.nodes[c].isCoord {
			continue // merged away while we iterated
		}
		if o.exchange(c, 0, st) {
			ok, err := o.reconcileIsland(c, st)
			if err != nil {
				return err
			}
			if ok {
				ms.Reconciled++
			}
		}
	}

	// 2. Cut detection: a node whose parent link has been silent for
	// ConfirmAfter consecutive rounds checks whether the root side answers
	// at all before concluding anything.
	for id := 1; id < len(o.nodes); id++ {
		n := &o.nodes[id]
		if !o.live[id] || n.isCoord || n.pmiss < o.fcfg.ConfirmAfter {
			continue
		}
		if o.exchange(int32(id), 0, st) {
			// The root side answers: the silence is local to this link.
			// Re-home exactly like a false-confirm recovery would.
			if o.rejoinEvicted(int32(id), st) {
				n.pmiss = 0
			}
			continue
		}
		o.degrade(int32(id), ms, st)
	}

	// 3. Island merging: reachable coordinators pair up, the one closer
	// to the source wins the election and absorbs the other's subtree.
	o.mergeIslands(ms, st)

	ms.Islands = o.Islands()
	return nil
}

// degrade cuts subtree root c over to degraded mode: it detaches from its
// unreachable parent (both ends observed the same per-link silence, so the
// detach is symmetric local bookkeeping) and elects itself the island's
// interim coordinator, with delays re-measured relative to the island.
func (o *Overlay) degrade(c int32, ms *MaintenanceStats, st *OpStats) {
	n := &o.nodes[c]
	if p := n.parent; p >= 0 {
		o.detachChild(p, c)
	}
	n.parent = parentNone
	n.pmiss = 0
	n.susp = 0
	n.isCoord = true
	n.delay = 0
	o.refreshDelays(c)
	st.Messages++ // the subtree learns its interim coordinator
	o.Stats.DegradedSubtrees++
	o.Stats.CoordElections++
	ms.Degraded++
	o.emit("protocol/degrade", c, -1, "")
	o.emit("protocol/elect_coordinator", c, -1, "")
}

// islandNodes returns the live members of the island rooted at coordinator
// c (including c), in deterministic DFS order.
func (o *Overlay) islandNodes(c int32) []int32 {
	out := []int32{c}
	for head := 0; head < len(out); head++ {
		for _, ch := range o.nodes[out[head]].children {
			if o.live[ch] {
				out = append(out, ch)
			}
		}
	}
	return out
}

// islandAttachTarget picks the island member under coordinator c that
// minimizes the joiner's island-relative delay, among members with spare
// degree and within the degraded-radius bound. Returns -1 when the island
// has no admissible slot.
func (o *Overlay) islandAttachTarget(c int32, px, py float64) int32 {
	bound := o.degradedRadius()
	best := int32(-1)
	bestScore := math.Inf(1)
	for _, m := range o.islandNodes(c) {
		n := &o.nodes[m]
		if o.residual(m) == 0 {
			continue
		}
		dx, dy := n.pos.X-px, n.pos.Y-py
		score := n.delay + math.Sqrt(dx*dx+dy*dy)
		if score <= bound && score < bestScore {
			best, bestScore = m, score
		}
	}
	return best
}

// degradedAttach serves a join whose path to the source is dark: it tries
// each live interim coordinator in id order (the partition decides which
// are reachable) and performs a bounded-radius local attach in the first
// island with an admissible slot. Returns the parent id, or -1 when no
// island could serve the join (the caller rolls back as before).
func (o *Overlay) degradedAttach(id int32, st *OpStats) int32 {
	pos := o.nodes[id].pos
	for _, c := range o.coordinators() {
		if !o.exchange(id, c, st) {
			continue // this island is on another side (or unlucky)
		}
		parent := o.islandAttachTarget(c, pos.X, pos.Y)
		if parent < 0 {
			continue // saturated within the degraded radius
		}
		if parent != c && !o.exchange(id, parent, st) {
			continue
		}
		o.attach(id, parent)
		st.Degraded = true
		o.emit("protocol/degraded_join", id, parent, "coord="+strconv.Itoa(int(c)))
		return parent
	}
	return -1
}

// mergeIslands lets reachable islands coalesce while the partition lasts:
// coordinators pair up in id order, the pair elects the one closer to the
// source (tie: lower id), and the loser's subtree grafts into the winner's
// island under the degraded-radius bound. Islands that cannot reach each
// other, or whose graft would blow the bound, stay separate.
func (o *Overlay) mergeIslands(ms *MaintenanceStats, st *OpStats) {
	coords := o.coordinators()
	for i := 0; i < len(coords); i++ {
		a := coords[i]
		for j := i + 1; j < len(coords); j++ {
			if !o.nodes[a].isCoord {
				break // a lost an earlier election this round
			}
			b := coords[j]
			if !o.nodes[b].isCoord {
				continue
			}
			if !o.exchange(a, b, st) {
				continue // different sides (or unlucky); stay split
			}
			winner, loser := a, b
			da := o.nodes[a].pos.Dist(o.cfg.Source)
			db := o.nodes[b].pos.Dist(o.cfg.Source)
			if db < da {
				winner, loser = b, a
			}
			if !o.islandGraft(loser, winner, st) {
				continue
			}
			o.Stats.IslandMerges++
			o.Stats.CoordElections++
			ms.Merged++
			o.emit("protocol/elect_coordinator", winner, loser, "merge")
		}
	}
}

// islandGraft attaches the island rooted at loser under the best admissible
// slot of winner's island, demoting loser from coordinator. Returns false
// (nothing moved) when the winner's island has no slot within the
// degraded-radius bound or the handshake fails.
func (o *Overlay) islandGraft(loser, winner int32, st *OpStats) bool {
	pos := o.nodes[loser].pos
	st.Messages++ // member-list query to the winning coordinator
	parent := o.islandAttachTarget(winner, pos.X, pos.Y)
	if parent < 0 {
		return false
	}
	if parent != winner && !o.exchange(loser, parent, st) {
		return false
	}
	o.attach(loser, parent)
	o.refreshDelays(loser)
	o.nodes[loser].isCoord = false
	return true
}

// reconcileIsland re-grafts the island rooted at coordinator c back under
// the root side after a heal: handshake with the proper polar-grid anchor
// (the representative of the nearest occupied ancestor cell, exactly where
// a fresh cell representative would attach), re-measure delays, then sweep
// the island for ghosts and dedup cell membership. Returns false when the
// anchor handshake failed — the island stays degraded and retries next
// round. A non-nil error is a scheduled kill firing right after the graft:
// the island is re-attached but its delays, ghosts, and duplicate
// membership entries are not yet reconciled.
func (o *Overlay) reconcileIsland(c int32, st *OpStats) (bool, error) {
	o.emit("protocol/reconcile.begin", c, -1, "")
	ring, idx := grid.RingIdx(int(o.nodes[c].cell))
	var anchor int32
	if ring == 0 {
		anchor = 0
	} else {
		anchor = o.ancestorAnchor(ring, idx, o.nodes[c].pos, st)
	}
	// The partition may have marooned an ancestor-cell representative
	// inside this very island; grafting under our own descendant would
	// cycle, so fall back to the source.
	if anchor < 0 || anchor == c || o.isDescendant(anchor, c) {
		anchor = 0
	}
	// The anchor may be saturated (several islands re-graft in the same
	// round): climb toward the source like an adoption would, then descend
	// for a slot. The island is detached from the root tree, so neither
	// walk can re-enter it.
	for anchor > 0 && (!o.live[anchor] || o.residual(anchor) == 0) {
		st.Messages++
		anchor = o.nodes[anchor].parent
	}
	if anchor < 0 {
		anchor = 0
	}
	if anchor == 0 && o.residual(0) == 0 {
		if alt := o.descendParent(o.nodes[c].pos, o.residual, st); alt >= 0 {
			anchor = alt
		} else {
			o.emit("protocol/reconcile.end", c, anchor, "retry")
			return false, nil
		}
	}
	if !o.exchange(c, anchor, st) {
		o.emit("protocol/reconcile.end", c, anchor, "retry")
		return false, nil
	}
	o.attach(c, anchor)
	// Kill point: the island is grafted but delays are stale, ghosts are
	// still wired, and membership lists may hold duplicates.
	if err := o.killpoint("reconcile"); err != nil {
		return false, err
	}
	o.refreshDelays(c)
	o.nodes[c].isCoord = false
	o.nodes[c].pmiss = 0
	o.emit("protocol/regraft", c, anchor, "")

	// Ghost sweep: members that died while the island was cut off but are
	// still wired into it.
	var ghosts []int32
	stack := []int32{c}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range o.nodes[v].children {
			if !o.live[ch] {
				ghosts = append(ghosts, ch)
			}
			stack = append(stack, ch)
		}
	}
	for _, g := range ghosts {
		st.Messages++ // the ghost's neighbors report the silence
		o.repairDead(g, st)
	}

	// Duplicate/ghost membership entries are resolved cell-locally by the
	// representatives (bookkeeping, no messages).
	o.dedupMembers()

	o.Stats.Reconciliations++
	o.emit("protocol/reconcile.end", c, anchor, "ok")
	return true, nil
}

// dedupMembers drops duplicate and dead entries from every cell's
// membership list, preserving order.
func (o *Overlay) dedupMembers() {
	seen := make(map[int32]bool)
	for cell := range o.members {
		ms := o.members[cell][:0]
		for _, m := range o.members[cell] {
			if !o.live[m] || seen[m] {
				continue
			}
			seen[m] = true
			ms = append(ms, m)
		}
		o.members[cell] = ms
	}
}

// AuditDegraded verifies the invariants that must hold even while a
// partition is in effect: the wired parent/child state is symmetric, and
// the live membership forms an acyclic, degree-bounded forest whose roots
// are the source, the interim coordinators, and nodes whose repair is
// still pending (a live node under a confirmed-dead parent). Audit() is
// the strict single-tree form; during a partition it reports the islands
// as disconnection while AuditDegraded must still pass — the fuzz and
// chaos tests assert it after every round.
func (o *Overlay) AuditDegraded() error {
	parents := make([]int32, len(o.nodes))
	children := make([][]int32, len(o.nodes))
	for i := range o.nodes {
		parents[i] = o.nodes[i].parent
		children[i] = o.nodes[i].children
	}
	if err := invariant.CheckSymmetry(parents, children).Err(); err != nil {
		return err
	}
	// Compact the live membership into a forest: any live node whose
	// parent is dead or detached is a root of its component.
	newID := make([]int32, len(o.nodes))
	oldID := make([]int32, 0, o.alive)
	for i := range o.nodes {
		if o.live[i] {
			newID[i] = int32(len(oldID))
			oldID = append(oldID, int32(i))
		} else {
			newID[i] = -1
		}
	}
	fparents := make([]int32, len(oldID))
	var roots []int32
	for j, old := range oldID {
		p := o.nodes[old].parent
		if old == 0 || p < 0 || !o.live[p] {
			fparents[j] = tree.NoParent
			roots = append(roots, int32(j))
		} else {
			fparents[j] = newID[p]
		}
	}
	return invariant.CheckForest(fparents, roots, o.cfg.MaxOutDegree).Err()
}
