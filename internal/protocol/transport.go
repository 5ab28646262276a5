package protocol

import (
	"fmt"
	"math"
	"strconv"

	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/invariant"
	"omtree/internal/obs"
	"omtree/internal/obs/trace"
)

// Transport decides the fate of each control-message attempt. The default
// (a nil transport) is perfectly reliable and free of delay: it counts the
// same messages and attempts as a plane that never loses, duplicates or
// delays one; internal/faultplane.Plane implements this contract to inject
// loss, duplication, delay, and crashes.
type Transport interface {
	// Attempt reports the fate of one message attempt from -> to.
	Attempt(from, to int32) faultplane.Outcome
	// Jitter returns a uniform [0, 1) draw for retry-backoff jitter.
	Jitter() float64
}

// TracedTransport is a Transport that can additionally land its per-attempt
// verdicts (deliver/drop/dup/delay/crash) on the caller's event timeline.
// AttemptTraced must draw exactly as Attempt would — same stream, same
// order — so attaching a recorder never changes the fault schedule.
// faultplane.Plane implements this.
type TracedTransport interface {
	Transport
	AttemptTraced(from, to int32, tc trace.Ctx) faultplane.Outcome
}

// RetryPolicy bounds how hard a sender pushes one control exchange through
// an unreliable network.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per exchange (>= 1).
	MaxAttempts int
	// BaseTimeout is the first attempt's timeout in simulated time units.
	BaseTimeout float64
	// Backoff multiplies the timeout after each failed attempt (>= 1).
	Backoff float64
	// Jitter adds up to this fraction of the timeout as random slack, so
	// synchronized retries decorrelate.
	Jitter float64
}

// FaultConfig tunes the robust control plane: the retry policy for
// request/response exchanges and the heartbeat failure detector's
// suspicion thresholds (alive -> suspected -> confirmed-dead).
type FaultConfig struct {
	Retry RetryPolicy
	// SuspectAfter is the number of consecutive missed heartbeat rounds
	// after which a node is suspected (>= 1).
	SuspectAfter int
	// ConfirmAfter is the number of consecutive missed rounds after which
	// a suspected node is confirmed dead and repaired around
	// (>= SuspectAfter). Larger values tolerate more message loss before a
	// false positive; smaller values shorten orphaned time. It also sets
	// how many consecutive silent parent-link rounds a node tolerates
	// before checking for a partition (see DESIGN.md §2f).
	ConfirmAfter int
	// DegradedRadius bounds the island-relative delay of degraded-mode
	// attachments during a partition; 0 selects the default of twice the
	// published grid scale.
	DegradedRadius float64
}

// DefaultFaultConfig returns the tuning used by the experiments: four
// attempts with doubling timeouts survive 30% loss on 99.2% of exchanges,
// and four missed rounds keep false confirmation rare while bounding
// repair latency.
func DefaultFaultConfig() FaultConfig {
	return FaultConfig{
		Retry:        RetryPolicy{MaxAttempts: 4, BaseTimeout: 0.05, Backoff: 2, Jitter: 0.25},
		SuspectAfter: 2,
		ConfirmAfter: 4,
	}
}

// validate rejects degenerate tunings.
func (c FaultConfig) validate() error {
	if c.Retry.MaxAttempts < 1 {
		return fmt.Errorf("protocol: retry MaxAttempts %d < 1", c.Retry.MaxAttempts)
	}
	if c.Retry.Backoff < 1 {
		return fmt.Errorf("protocol: retry Backoff %v < 1", c.Retry.Backoff)
	}
	if c.Retry.BaseTimeout < 0 || c.Retry.Jitter < 0 {
		return fmt.Errorf("protocol: negative retry timeout or jitter")
	}
	if c.SuspectAfter < 1 {
		return fmt.Errorf("protocol: SuspectAfter %d < 1", c.SuspectAfter)
	}
	if c.ConfirmAfter < c.SuspectAfter {
		return fmt.Errorf("protocol: ConfirmAfter %d < SuspectAfter %d", c.ConfirmAfter, c.SuspectAfter)
	}
	if math.IsNaN(c.DegradedRadius) || math.IsInf(c.DegradedRadius, 0) || c.DegradedRadius < 0 {
		return fmt.Errorf("protocol: DegradedRadius %v must be finite and non-negative", c.DegradedRadius)
	}
	return nil
}

// SetTransport routes every subsequent control message through t with the
// given fault tuning. Passing a nil transport restores the reliable
// default. Typical use: attach a faultplane.Plane, drive a churn workload,
// deactivate the plane, then run MaintenanceRound until Audit passes.
func (o *Overlay) SetTransport(t Transport, cfg FaultConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	o.transport = t
	o.fcfg = cfg
	o.ttrans = nil
	if tt, ok := t.(TracedTransport); ok {
		o.ttrans = tt
	}
	return nil
}

// exchange performs one request/response control exchange from -> to with
// the full retry budget. See exchangeN.
func (o *Overlay) exchange(from, to int32, st *OpStats) bool {
	return o.exchangeN(from, to, 0, st)
}

// exchangeN pushes one control exchange through the transport, retrying on
// timeout with exponential backoff and jitter; maxAttempts 0 means the
// policy default. Under the reliable default it costs exactly one message
// and one attempt and always succeeds, as a lossless transport's first
// attempt does, so every protocol step that goes through it is counted
// the same with or without a transport. A false return
// means the retry budget is exhausted: the destination crashed, or the
// network ate (or over-delayed) every attempt. Handlers behind an exchange
// must be idempotent — a duplicated attempt applies them twice, and a
// delivery delayed past the timeout is modeled as a loss precisely because
// the retry's effect subsumes the late one.
func (o *Overlay) exchangeN(from, to int32, maxAttempts int, st *OpStats) bool {
	traced := o.rec.Enabled()
	if o.transport == nil {
		st.Messages++
		o.Stats.Attempts++
		o.Stats.AttemptsDelivered++
		if traced {
			o.rec.Emit(o.curTrace, 0, "protocol/attempt", from, to, "n=1")
		}
		return true
	}
	pol := o.fcfg.Retry
	if maxAttempts <= 0 {
		maxAttempts = pol.MaxAttempts
	}
	// One timeline span per exchange; the attempt/retry instants and the
	// fault plane's verdicts all carry it, and the recorder's virtual clock
	// advances by the same delivery delays and timeouts SimTime accumulates.
	var tc trace.Ctx
	if traced {
		tc = trace.Ctx{R: o.rec, Trace: o.curTrace, Span: o.rec.NewSpan()}
		tc.Emit("protocol/exchange.begin", from, to, "")
	}
	timeout := pol.BaseTimeout
	for attempt := 1; ; attempt++ {
		st.Messages++
		o.Stats.Attempts++
		if attempt > 1 {
			st.Retries++
			o.Stats.Retries++
			if traced {
				tc.Emit("protocol/retry", from, to, "n="+strconv.Itoa(attempt))
			}
		} else if traced {
			tc.Emit("protocol/attempt", from, to, "n=1")
		}
		var out faultplane.Outcome
		if traced && o.ttrans != nil {
			out = o.ttrans.AttemptTraced(from, to, tc)
		} else {
			out = o.transport.Attempt(from, to)
		}
		if out.CrashDest {
			o.crash(to)
		}
		if o.nodeAlive(to) && !out.Lost && (timeout <= 0 || out.Delay <= timeout) {
			st.SimTime += out.Delay
			o.Stats.AttemptsDelivered++
			if out.Duplicate {
				st.Duplicates++
				o.Stats.DuplicatesDelivered++
			}
			if traced {
				o.rec.Advance(out.Delay)
				tc.Emit("protocol/exchange.end", from, to, "ok")
			}
			return true
		}
		st.Lost++
		o.Stats.MessagesLost++
		st.SimTime += timeout
		if traced {
			if !out.Lost && timeout > 0 && out.Delay > timeout && o.nodeAlive(to) {
				tc.Emit("protocol/late", from, to, "")
			}
			o.rec.Advance(timeout)
		}
		if attempt >= maxAttempts {
			st.Timeouts++
			o.Stats.Timeouts++
			if traced {
				tc.Emit("protocol/exchange.end", from, to, "timeout")
			}
			return false
		}
		timeout *= pol.Backoff
		timeout += timeout * pol.Jitter * o.transport.Jitter()
	}
}

// nodeAlive reports whether id is a live endpoint (the source always is).
func (o *Overlay) nodeAlive(id int32) bool {
	return id == 0 || (id > 0 && int(id) < len(o.nodes) && o.live[id])
}

// crash kills a node mid-operation — fault injection, not a graceful
// leave. The source never crashes. Like FailAbrupt, the victim's state
// stays wired until the failure detector confirms the death.
func (o *Overlay) crash(id int32) {
	if id <= 0 || int(id) >= len(o.nodes) {
		return
	}
	if !o.live[id] {
		return
	}
	o.live[id] = false
	o.alive--
	o.Stats.InjectedCrashes++
	o.forgetDrift(id)
}

// MaintenanceStats reports one failure-detector round.
type MaintenanceStats struct {
	Op OpStats
	// Probes is the number of heartbeat exchanges performed.
	Probes int
	// NewlySuspected / NewlyConfirmed count state transitions this round.
	NewlySuspected int
	NewlyConfirmed int
	// FalseConfirms counts live nodes wrongly confirmed dead this round
	// (they recover by re-handshaking or re-joining; the tree stays valid).
	FalseConfirms int
	// Cleaned counts dead nodes whose repair completed this round.
	Cleaned int
	// Elections counts representative elections held this round.
	Elections int
	// Orphaned is the number of live members unreachable from the source
	// at the end of the round — still waiting for repair.
	Orphaned int

	// Partition-tolerance accounting (see DESIGN.md §2f).
	Degraded   int // subtrees that cut over to degraded mode this round
	Merged     int // island pairs merged this round
	Reconciled int // islands re-grafted under the root side this round
	Islands    int // degraded-mode islands still serving at round end

	// Join-admission accounting.
	AdmittedJoins int // queued joins admitted this round
	PendingJoins  int // joins still parked at round end

	// Kinetic-drift accounting (see DESIGN.md §2h).
	Reestimated   int     // members whose coordinates were refreshed this round
	Drifted       int     // refreshed members whose position had actually moved
	CertRatio     float64 // realized radius / certified bound after this round (0 while unarmed)
	RepairedLocal int     // dirty-cell local repairs run this round
	RepairedFull  int     // full rebuilds run this round (periodic or fallback)
}

// MaintenanceRound runs one periodic round of the deployed control loop:
// heartbeat probes over every parent-child link and every
// (representative, member) pair, suspicion updates, cleanup of
// confirmed-dead members (orphan adoption, re-election), recovery of live
// nodes the detector wrongly confirmed, and elections for
// representative-less cells. A step that fails under an unreliable
// transport leaves its node pending and is retried next round, so the
// round is idempotent; once injection stops, the overlay converges back to
// a spanning tree within ConfirmAfter plus a few rounds (the chaos
// property test asserts this).
func (o *Overlay) MaintenanceRound() (MaintenanceStats, error) {
	var ms MaintenanceStats
	st := &ms.Op
	o.Stats.MaintenanceRounds++
	endOp := o.beginOp("protocol/maintenance", -1, "")
	defer func() { endOp("confirmed=" + strconv.Itoa(ms.NewlyConfirmed)) }()
	sp := resolveRoundSpans(o.reg)
	led := roundLedger{total: sp.total.Start(), phase: sp.detector.Start()}
	defer led.end()

	// Phase 0: advance the transport's virtual round clock (scheduled
	// partition events fire here) unless a GroupSet sweep owns it, note
	// split/heal transitions on the timeline, then refill the admission
	// bucket and admit queued joins.
	if rt, ok := o.transport.(RoundTicker); ok && !o.flightShared {
		rt.Tick()
	}
	if pt, ok := o.transport.(PartitionedTransport); ok {
		if sides := pt.Partitioned(); sides != o.lastSides {
			if sides > 1 {
				o.emit("protocol/partition", -1, -1, "sides="+strconv.Itoa(sides))
			} else {
				o.emit("protocol/heal", -1, -1, "")
			}
			o.lastSides = sides
		}
	}
	o.admitPending(&ms)

	// Phase 1: heartbeats. heard/missed aggregate what each node's
	// monitors observed this round: one successful exchange anywhere
	// clears suspicion, silence on every monitored link raises it.
	heard := make([]bool, len(o.nodes))
	missed := make([]bool, len(o.nodes))
	probe := func(a, b int32) bool {
		if a == b || a < 0 || b < 0 {
			return false
		}
		an, bn := o.live[a], o.live[b]
		if !an && !bn {
			return false // no live endpoint left to observe this link
		}
		ms.Probes++
		o.Stats.Heartbeats++
		o.emit("protocol/heartbeat", a, b, "")
		if an && bn {
			if o.exchangeN(a, b, 1, st) {
				heard[a], heard[b] = true, true
				return true
			}
		} else {
			st.Messages++ // the live side probes into silence
		}
		if an {
			missed[b] = true
		}
		if bn {
			missed[a] = true
		}
		return false
	}
	for id := 1; id < len(o.nodes); id++ {
		if p := o.nodes[id].parent; p >= 0 {
			// The child's own view of its parent link feeds the per-link
			// silence counter that drives partition detection.
			if probe(int32(id), p) {
				o.nodes[id].pmiss = 0
			} else if o.live[id] {
				o.nodes[id].pmiss++
			}
		}
	}
	for cell := 1; cell < len(o.members); cell++ {
		rep := o.reps[cell]
		if rep < 0 {
			continue
		}
		for _, m := range o.members[cell] {
			if m != rep {
				probe(m, rep)
			}
		}
	}

	// Phase 2: suspicion state machine (alive -> suspected -> confirmed).
	for id := 1; id < len(o.nodes); id++ {
		n := &o.nodes[id]
		switch {
		case heard[id]:
			n.susp = 0
		case missed[id]:
			n.susp++
			if n.susp == o.fcfg.SuspectAfter {
				ms.NewlySuspected++
				o.emit("protocol/suspect", int32(id), -1, "")
				if o.live[id] {
					o.Stats.FalseSuspects++
				}
			}
			if n.susp == o.fcfg.ConfirmAfter {
				ms.NewlyConfirmed++
				o.emit("protocol/confirm", int32(id), -1, "")
			}
		}
	}

	// Phase 3: act on confirmations. Dead nodes are repaired around; live
	// nodes wrongly confirmed re-handshake with their parent (or re-join),
	// so false positives degrade to wasted messages, never a broken tree.
	for id := 1; id < len(o.nodes); id++ {
		n := &o.nodes[id]
		if n.susp < o.fcfg.ConfirmAfter {
			continue
		}
		if o.live[id] {
			if n.isCoord {
				continue // a known island root; the partition phase owns it
			}
			ms.FalseConfirms++
			o.Stats.FalseConfirms++
			o.emit("protocol/false_confirm", int32(id), -1, "")
			o.rejoinEvicted(int32(id), st)
			n.susp = 0
			continue
		}
		if n.parent == parentDead && len(n.children) == 0 {
			continue // already fully cleaned
		}
		if o.repairDead(int32(id), st) {
			ms.Cleaned++
		}
	}

	led.next(sp.partition)
	// Phase 3b: partition handling — heal detection and reconciliation
	// for existing islands, degraded-mode cutover for subtrees that lost
	// the root side, island merging. A returned error is a scheduled kill
	// firing mid-reconciliation: the round dies where the crash left it.
	if err := o.partitionPhase(&ms, st); err != nil {
		return ms, err
	}

	led.next(sp.elect)
	// Phase 4: elect representatives for cells that lost theirs (a failed
	// election, or a joiner that could not reach its anchor).
	for cell := 1; cell < len(o.members); cell++ {
		if o.reps[cell] >= 0 || !o.cellHasLiveMember(int32(cell)) {
			continue
		}
		if o.electRep(int32(cell), st) {
			ms.Elections++
		}
	}

	led.next(sp.kinetic)
	// Phase 4b: kinetic drift — epoch tick, periodic coordinate
	// re-estimation and policy-driven repair (no-op without an attached
	// drift model).
	armed, err := o.driftPhase(&ms, st, sp.rebuild)
	if err != nil {
		return ms, err
	}

	led.next(sp.walk)
	// Phase 5: the round's one walk over the live tree. It counts the live
	// members still dark and, while the drift loop holds an armed
	// certificate, measures the certificate ratio. Nothing moves the tree
	// after the drift phase, so this is the tree its repair left.
	reach, radius := o.liveWalk()
	ms.Orphaned = o.alive - reach
	if armed {
		ms.CertRatio = o.ratioOf(radius)
		if o.reg != nil {
			o.reg.Gauge("protocol/certificate_ratio").Set(ms.CertRatio)
			o.reg.Gauge("protocol/drifted_nodes").Set(float64(o.Stats.DriftedNodes))
		}
	}
	o.Stats.OrphanNodeRounds += ms.Orphaned
	o.Stats.MaintenanceMessages += st.Messages
	if o.reg != nil {
		o.reg.Gauge("protocol/islands").Set(float64(ms.Islands))
		o.reg.Gauge("protocol/pending_joins").Set(float64(len(o.pending)))
	}

	led.next(sp.flight)
	// Phase 6: flight sampling — the round clock ticks once per sweep, after
	// every gauge above reflects this round, so the sample sees a consistent
	// end-of-round view. Sessions inside a GroupSet sample through the set's
	// shared sweep instead (see GroupSet.MaintenanceAll).
	if !o.flightShared {
		o.flight.Tick()
	}

	led.next(sp.snapshot)
	// Phase 7: scheduled snapshots — the round is complete, so the encoded
	// state is exactly the end-of-round checkpoint a restore resumes from.
	if err := o.maybeAutoSnapshot(); err != nil {
		return ms, err
	}
	return ms, nil
}

// roundSpans are the handles of a maintenance round's ledger: the
// protocol/maintenance span, the top-level round/* spans that tile it
// phase by phase, and round/kinetic/rebuild nested under the kinetic
// phase around repair rebuilds. MaintenanceRound resolves them once per
// round; on a nil or disabled registry every handle is inert.
type roundSpans struct {
	total, detector, partition, elect, kinetic, rebuild, walk, flight, snapshot obs.SpanHandle
}

func resolveRoundSpans(reg *obs.Registry) roundSpans {
	return roundSpans{
		total:     reg.ResolveSpan("protocol/maintenance"),
		detector:  reg.ResolveSpan("round/detector"),
		partition: reg.ResolveSpan("round/partition"),
		elect:     reg.ResolveSpan("round/elect"),
		kinetic:   reg.ResolveSpan("round/kinetic"),
		rebuild:   reg.ResolveSpan("round/kinetic/rebuild"),
		walk:      reg.ResolveSpan("round/walk"),
		flight:    reg.ResolveSpan("round/flight"),
		snapshot:  reg.ResolveSpan("round/snapshot"),
	}
}

// roundLedger times one round: the running total span and the current
// phase's span, which next closes as it opens the following phase, so the
// phases tile the total without overlap.
type roundLedger struct {
	total, phase obs.Span
}

func (l *roundLedger) next(h obs.SpanHandle) {
	l.phase.End()
	l.phase = h.Start()
}

func (l *roundLedger) end() {
	l.phase.End()
	l.total.End()
}

// Converge runs maintenance rounds until the overlay passes the full audit
// or maxRounds is exhausted. It returns the rounds used and the last audit
// error (nil on success). Call after fault injection stops.
func (o *Overlay) Converge(maxRounds int) (int, error) {
	var lastErr error
	for round := 1; round <= maxRounds; round++ {
		if _, err := o.MaintenanceRound(); err != nil {
			return round, err
		}
		if lastErr = o.Audit(); lastErr == nil {
			return round, nil
		}
	}
	return maxRounds, lastErr
}

// repairDead cleans up one confirmed-dead node: unlink it from its parent,
// drop it from its cell's membership, re-elect if it held the
// representative role, and adopt its orphans. Each step is idempotent, so
// partial progress under an unreliable transport is retried on the next
// round. Returns true once the node is fully cleaned (no wired edges
// left); the caller may then forget it.
func (o *Overlay) repairDead(id int32, st *OpStats) bool {
	n := &o.nodes[id]
	anchor := n.parent
	o.emit("protocol/repair", id, -1, "")

	// Unlink from the parent. Dropping a dead child is local bookkeeping
	// at the parent — it noticed the silence itself; no message needed. A
	// dead parent's own cleanup simply no longer sees this child.
	if p := n.parent; p >= 0 {
		o.detachChild(p, id)
		n.parent = parentNone
	}

	// Membership removal is local at the cell (the representative and the
	// members observed the silence through their own probes).
	o.removeMember(n.cell, id)
	o.resign(id, st)

	// Orphan adoption: live children climb to the nearest live ancestor
	// with room; an orphan whose handshake fails stays put for next round.
	var kept []int32
	for _, c := range n.children {
		if !o.live[c] {
			// A dead child becomes a floating root of its own cleanup; its
			// live descendants' probes keep its confirmation advancing.
			o.nodes[c].parent = parentNone
			continue
		}
		st.Messages++ // the orphan notices and starts the climb
		if o.adoptOrphan(c, anchor, st) {
			continue
		}
		kept = append(kept, c)
	}
	n.children = kept
	n.isCoord = false // a dead coordinator's island re-degrades on its own
	if len(kept) == 0 {
		n.parent = parentDead
		n.susp = 0
		return true
	}
	return false
}

// adoptOrphan reattaches live orphan c after its parent died: it climbs
// from the dead parent's anchor toward the source looking for a live node
// with room (one probe per hop), falls back to a descent from the source,
// and confirms with a handshake exchange. Returns false when the handshake
// failed — the orphan stays where it is and retries next round.
func (o *Overlay) adoptOrphan(c, anchor int32, st *OpStats) bool {
	target := anchor
	for target > 0 && (!o.live[target] || o.residual(target) == 0) {
		st.Messages++
		target = o.nodes[target].parent
	}
	if target < 0 {
		target = 0
	}
	if o.residual(target) == 0 && target == 0 {
		if alt := o.descendParent(o.nodes[c].pos, o.residual, st); alt >= 0 {
			target = alt
		}
	}
	if !o.exchange(c, target, st) {
		return false
	}
	o.attach(c, target)
	o.refreshDelays(c)
	o.emit("protocol/adopt", c, target, "")
	return true
}

// rejoinEvicted recovers a live node the failure detector wrongly
// confirmed dead (also reused to re-home a node whose parent link went
// dark while the root side stayed reachable). It first re-handshakes with
// its current parent — under plain message loss that succeeds and nothing
// moves. Only if the parent is truly unreachable does it re-join by
// descending from the source, bringing its subtree along; if even that
// fails it stays put, returns false, and the next round retries. The tree
// is never corrupted either way.
func (o *Overlay) rejoinEvicted(id int32, st *OpStats) bool {
	if p := o.nodes[id].parent; p >= 0 && o.live[p] && o.exchange(id, p, st) {
		return true // re-admitted in place
	}
	cand := o.descendParent(o.nodes[id].pos, o.residual, st)
	if cand < 0 || cand == id || cand == o.nodes[id].parent || o.isDescendant(cand, id) {
		return false
	}
	if !o.exchange(id, cand, st) {
		return false
	}
	o.moveSubtree(id, cand)
	o.emit("protocol/rejoin", id, cand, "")
	return true
}

// electRep runs a representative election in a cell: the lowest-id live
// member convenes, every live member it can reach casts a ballot, and the
// reachable member closest to the cell's inner arc wins (the static
// algorithm's choice). Idempotent: re-running with the same survivors
// elects the same node. Returns false when no member was electable.
func (o *Overlay) electRep(cell int32, st *OpStats) bool {
	var convener int32 = -1
	best := o.closestToArc(cell, func(m int32) bool {
		if !o.live[m] {
			return false
		}
		if convener < 0 {
			convener = m
			st.Messages++ // the convener announces the election
			return true
		}
		return o.exchange(convener, m, st) // unreachable members sit this one out
	})
	if best < 0 {
		return false
	}
	o.reps[cell] = best
	o.Stats.RepElections++
	o.emit("protocol/elect", best, -1, "cell="+strconv.Itoa(int(cell)))
	return true
}

// resign vacates id's representative role, if it holds one, and the
// cell's survivors elect a successor.
func (o *Overlay) resign(id int32, st *OpStats) {
	if cell := o.nodes[id].cell; o.reps[cell] == id {
		o.reps[cell] = -1
		o.electRep(cell, st)
	}
}

// closestToArc returns the member of cell closest to the middle of the
// cell's inner arc, the static algorithm's representative, among those
// admit accepts (-1 if none). admit sees the members in list order.
func (o *Overlay) closestToArc(cell int32, admit func(m int32) bool) int32 {
	ring, idx := grid.RingIdx(int(cell))
	seg := o.g.Segment(ring, idx)
	center := geom.Polar{R: seg.RMin, Theta: seg.MidTheta()}
	best, bestD := int32(-1), math.Inf(1)
	for _, m := range o.members[cell] {
		if !admit(m) {
			continue
		}
		if d := o.dist(o.nodes[m].polar, center); d < bestD {
			best, bestD = m, d
		}
	}
	return best
}

// removeMember drops id from its cell's membership list (idempotent).
func (o *Overlay) removeMember(cell, id int32) {
	ms := o.members[cell]
	for i, m := range ms {
		if m == id {
			ms[i] = ms[len(ms)-1]
			o.members[cell] = ms[:len(ms)-1]
			return
		}
	}
}

// cellHasLiveMember reports whether any member of the cell is alive.
func (o *Overlay) cellHasLiveMember(cell int32) bool {
	for _, m := range o.members[cell] {
		if o.live[m] {
			return true
		}
	}
	return false
}

// CoverageRatio returns the fraction of live members (including the
// source) a multicast packet would currently reach — 1.0 once every
// failure has been repaired, lower while subtrees hang dark under
// undetected crashes.
func (o *Overlay) CoverageRatio() float64 {
	if o.alive == 0 {
		return 0
	}
	reach, _ := o.liveWalk()
	return float64(reach) / float64(o.alive)
}

// Audit independently re-verifies the whole overlay. First the wired
// parent/child state must be symmetric — duplicate or dangling child
// entries are exactly the corruption duplicated or lost control messages
// would cause. Then the snapshot tree must pass the full invariant audit:
// spanning every live member from the source, acyclic, within the degree
// bound, with a radius matching an independent recomputation. Returns nil
// only when the overlay has fully converged.
func (o *Overlay) Audit() error {
	// Message-accounting invariant: every attempt that went through the
	// transport choke point was either delivered or lost, and a timed-out
	// exchange lost at least one attempt. A violation means some code path
	// mutated the stats outside exchangeN — drift that would silently skew
	// every experiment built on these counters.
	if got, want := o.Stats.Attempts, o.Stats.AttemptsDelivered+o.Stats.MessagesLost; got != want {
		return fmt.Errorf("protocol: stats drift: Attempts = %d, AttemptsDelivered + MessagesLost = %d", got, want)
	}
	if o.Stats.Timeouts > o.Stats.MessagesLost {
		return fmt.Errorf("protocol: stats drift: Timeouts = %d > MessagesLost = %d",
			o.Stats.Timeouts, o.Stats.MessagesLost)
	}
	parents := make([]int32, len(o.nodes))
	children := make([][]int32, len(o.nodes))
	for i := range o.nodes {
		parents[i] = o.nodes[i].parent
		children[i] = o.nodes[i].children
	}
	if err := invariant.CheckSymmetry(parents, children).Err(); err != nil {
		return err
	}
	t, pts, _, err := o.Snapshot()
	if err != nil {
		return err
	}
	dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
	return invariant.Check(t, o.alive, 0, o.cfg.MaxOutDegree, dist, t.Radius(dist)).Err()
}
