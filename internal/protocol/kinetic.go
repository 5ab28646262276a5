package protocol

import (
	"fmt"
	"math"
	"strconv"

	"omtree/internal/coords"
	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/obs"
)

// RepairPolicy selects how the overlay reacts when coordinate drift
// degrades the tree past its eq. 7 certificate (see DESIGN.md §2h).
type RepairPolicy int

const (
	// RepairNone only monitors: the certificate ratio and drift counters
	// are maintained, but the tree is never rewired.
	RepairNone RepairPolicy = iota
	// RepairLocal triggers a dirty-cell local repair when the realized
	// radius exceeds DegradationThreshold times the radius certified at
	// build time, escalating to a full rebuild only when the dirty-cell
	// fraction passes FullRebuildCutoff.
	RepairLocal
	// RepairFull rebuilds from scratch on every re-estimation sweep — the
	// periodic-full-refresh baseline the local policy is measured against.
	RepairFull
)

// String returns the policy's CLI spelling.
func (p RepairPolicy) String() string {
	switch p {
	case RepairNone:
		return "none"
	case RepairLocal:
		return "local"
	case RepairFull:
		return "full"
	}
	return "invalid(" + strconv.Itoa(int(p)) + ")"
}

// ParseRepairPolicy parses the CLI spelling of a repair policy.
func ParseRepairPolicy(s string) (RepairPolicy, error) {
	switch s {
	case "none":
		return RepairNone, nil
	case "local":
		return RepairLocal, nil
	case "full":
		return RepairFull, nil
	}
	return 0, fmt.Errorf("protocol: unknown repair policy %q (none, local, full)", s)
}

// DriftConfig tunes the kinetic control loop MaintenanceRound runs when a
// coordinate drift model is attached (SetDrift). The zero value disables
// the loop entirely.
type DriftConfig struct {
	// ReestimatePeriod is the number of maintenance rounds between
	// coordinate re-estimation sweeps (each sweep costs one report message
	// per reachable member). Required >= 1 when any other field is set.
	ReestimatePeriod int
	// DegradationThreshold is the certificate ratio — realized radius over
	// the radius frozen at build time — above which RepairLocal rewires; 0
	// selects the default of 1.25 (repair once drift has degraded the
	// tree's delay 25% past what was built). Values closer to 1 repair
	// more eagerly at a higher message cost.
	DegradationThreshold float64
	// FullRebuildCutoff is the dirty-cell fraction above which a local
	// repair escalates to a full rebuild; 0 selects the default of 0.25.
	FullRebuildCutoff float64
	// Policy selects the repair reaction; the zero value monitors only.
	Policy RepairPolicy
}

// Enabled reports whether the kinetic control loop runs.
func (c DriftConfig) Enabled() bool { return c.ReestimatePeriod > 0 }

// defaults for the optional DriftConfig knobs.
const (
	defaultDegradationThreshold = 1.25
	defaultFullRebuildCutoff    = 0.25
)

// threshold resolves the DegradationThreshold default.
func (c DriftConfig) threshold() float64 {
	if c.DegradationThreshold > 0 {
		return c.DegradationThreshold
	}
	return defaultDegradationThreshold
}

// cutoff resolves the FullRebuildCutoff default.
func (c DriftConfig) cutoff() float64 {
	if c.FullRebuildCutoff > 0 {
		return c.FullRebuildCutoff
	}
	return defaultFullRebuildCutoff
}

// validate rejects degenerate drift tunings (one descriptive error per
// field, like the rest of Config.Validate).
func (c DriftConfig) validate() error {
	if c == (DriftConfig{}) {
		return nil
	}
	if c.ReestimatePeriod < 1 {
		return fmt.Errorf("protocol: drift ReestimatePeriod %d < 1 (a kinetic loop needs a sweep cadence)", c.ReestimatePeriod)
	}
	if math.IsNaN(c.DegradationThreshold) || math.IsInf(c.DegradationThreshold, 0) || c.DegradationThreshold < 0 {
		return fmt.Errorf("protocol: drift DegradationThreshold %v must be finite and non-negative", c.DegradationThreshold)
	}
	if math.IsNaN(c.FullRebuildCutoff) || c.FullRebuildCutoff < 0 || c.FullRebuildCutoff > 1 {
		return fmt.Errorf("protocol: drift FullRebuildCutoff %v outside [0, 1]", c.FullRebuildCutoff)
	}
	if c.Policy < RepairNone || c.Policy > RepairFull {
		return fmt.Errorf("protocol: drift repair policy %d unknown (none, local, full)", c.Policy)
	}
	return nil
}

// SetDrift attaches a coordinate drift model to the session. From then on
// MaintenanceRound advances the model's epoch clock, re-estimates member
// coordinates every Config.Drift.ReestimatePeriod rounds, monitors the
// eq. 7 certificate, and repairs per Config.Drift.Policy. Every current
// and future member is tracked in the model (the source does not move).
// Passing nil detaches the model and stops the loop.
func (o *Overlay) SetDrift(m *coords.DriftModel) error {
	if m != nil && !o.cfg.Drift.Enabled() {
		return fmt.Errorf("protocol: drift model attached without Config.Drift tuning (set ReestimatePeriod)")
	}
	o.drift = m
	o.driftRounds = 0
	if m == nil {
		return nil
	}
	for id := 1; id < len(o.nodes); id++ {
		if o.live[id] {
			m.Track(id, o.nodes[id].pos)
		}
	}
	return nil
}

// trackDrift registers a successful joiner with the drift model.
func (o *Overlay) trackDrift(id int32, p geom.Point2) {
	if o.drift != nil {
		o.drift.Track(int(id), p)
	}
}

// forgetDrift drops a departed member from the drift model.
func (o *Overlay) forgetDrift(id int32) {
	if o.drift != nil {
		o.drift.Forget(int(id))
	}
}

// driftDist is the staleness-weighted distance between a candidate parent
// and a position: the plain Euclidean distance when no drift model is
// attached, inflated by the candidate's staleness weight otherwise, so
// joins and adoptions conservatively prefer freshly measured parents.
func (o *Overlay) driftDist(cand int32, p geom.Point2) float64 {
	d := o.nodes[cand].pos.Dist(p)
	if o.drift != nil {
		d *= o.drift.Weight(o.drift.Staleness(int(cand)))
	}
	return d
}

// Certificate returns the eq. 7 certificate frozen by the last Rebuild
// (the zero value before any rebuild ran).
func (o *Overlay) Certificate() core.Certificate { return o.bs.Certificate() }

// CertificateRatio reports the current certificate ratio — the realized
// radius over the radius the certificate froze at build time — and whether
// a certificate is armed at all (one Rebuild must have run). The frozen
// radius satisfied the eq. 7 bound, so a ratio near 1 means the tree still
// delivers what was certified while a growing ratio measures drift damage;
// the bound itself stays available as Certificate().Bound for absolute
// checks.
func (o *Overlay) CertificateRatio() (float64, bool) {
	if o.bs.Certificate().Radius <= 0 {
		return 0, false
	}
	_, radius := o.liveWalk()
	return o.ratioOf(radius), true
}

// ratioOf divides a realized radius by the certified one (0 while no
// certificate is armed).
func (o *Overlay) ratioOf(radius float64) float64 {
	cert := o.bs.Certificate()
	if cert.Radius <= 0 {
		return 0
	}
	return radius / cert.Radius
}

// RealizedRadius recomputes the live tree's maximum source-to-member delay
// from the current coordinate estimates, inflated by staleness weights;
// compare against Certificate().Bound for an absolute eq. 7 check.
func (o *Overlay) RealizedRadius() float64 {
	_, radius := o.liveWalk()
	return radius
}

// liveWalk is the one walk over the live tree: a depth-first pass from the
// source over live children, the set a multicast packet would cover right
// now. It returns how many live nodes it reached, the source included, and
// the realized radius: the largest source-to-member delay recomputed from
// current coordinate estimates, each hop inflated by the staleness weight
// of its staler endpoint, so an un-refreshed node degrades the certificate
// conservatively instead of silently satisfying it with out-of-date
// coordinates.
func (o *Overlay) liveWalk() (reach int, radius float64) {
	type item struct {
		id int32
		d  float64
	}
	stack := []item{{0, 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reach++
		sv := 0
		if o.drift != nil {
			sv = o.drift.Staleness(int(it.id))
		}
		for _, c := range o.nodes[it.id].children {
			if !o.live[c] {
				continue
			}
			w := 1.0
			if o.drift != nil {
				s := o.drift.Staleness(int(c))
				if sv > s {
					s = sv
				}
				w = o.drift.Weight(s)
			}
			d := it.d + o.nodes[it.id].pos.Dist(o.nodes[c].pos)*w
			if d > radius {
				radius = d
			}
			stack = append(stack, item{c, d})
		}
	}
	return reach, radius
}

// driftPhase is MaintenanceRound's kinetic step: advance the drift epoch,
// run the periodic re-estimation sweep, relocate members whose refreshed
// coordinates moved, and repair per policy. armed reports whether a
// certificate was armed when the repair decision ran; the round then
// reports the certificate ratio from its closing live-tree walk.
func (o *Overlay) driftPhase(ms *MaintenanceStats, st *OpStats, rebuild obs.SpanHandle) (armed bool, err error) {
	if o.drift == nil || !o.cfg.Drift.Enabled() {
		return false, nil
	}
	msgsBefore := st.Messages
	o.drift.Tick()
	o.driftRounds++
	sweep := o.driftRounds >= o.cfg.Drift.ReestimatePeriod
	if sweep {
		o.driftRounds = 0
		o.Stats.DriftReestimates++
		for id := 1; id < len(o.nodes); id++ {
			if !o.live[id] {
				continue
			}
			// One coordinate-report exchange per member; a member the
			// network hides stays stale, and the staleness weighting keeps
			// its contribution to the certificate conservative.
			if !o.exchange(int32(id), 0, st) {
				continue
			}
			ms.Reestimated++
			p, moved := o.drift.Refresh(id)
			if !moved {
				continue
			}
			ms.Drifted++
			o.Stats.DriftedNodes++
			o.relocate(int32(id), p, st)
		}
		if ms.Drifted > 0 {
			o.refreshDelays(0) // measured delays follow the fresh estimates
		}
		o.emit("protocol/drift_reestimate", -1, -1,
			"refreshed="+strconv.Itoa(ms.Reestimated)+" drifted="+strconv.Itoa(ms.Drifted))
	}

	armed = o.bs.Certificate().Radius > 0
	if !armed && sweep && o.cfg.Drift.Policy != RepairNone {
		// First sweep with no certificate yet: both repair policies arm it
		// with the same initial full build, so the policies' message costs
		// stay comparable from round one.
		if err := o.repairRebuild(rebuild); err != nil {
			return false, err
		}
		armed = o.bs.Certificate().Radius > 0
	}
	// Repairs only fire on sweep rounds: between sweeps the ratio moves on
	// staleness inflation alone, and rebuilding without refreshed
	// coordinates would rewire nothing.
	if armed && sweep {
		switch o.cfg.Drift.Policy {
		case RepairFull:
			o.bs.ForceFull()
			if err := o.repairRebuild(rebuild); err != nil {
				return false, err
			}
			ms.RepairedFull++
			o.emit("protocol/drift_repair", -1, -1, "mode=full")
		case RepairLocal:
			// The only decision that needs the ratio before the round's
			// closing walk: the one extra walk a sweep pays.
			if ratio, _ := o.CertificateRatio(); ratio > o.cfg.Drift.threshold() {
				if o.bs.DirtyFraction() > o.cfg.Drift.cutoff() {
					o.bs.ForceFull()
				}
				incBefore := o.Stats.IncrementalRebuilds
				if err := o.repairRebuild(rebuild); err != nil {
					return false, err
				}
				if o.Stats.IncrementalRebuilds > incBefore {
					o.Stats.LocalRepairs++
					ms.RepairedLocal++
					o.emit("protocol/drift_repair", -1, -1, "mode=local")
				} else {
					o.Stats.FullRebuildFallbacks++
					ms.RepairedFull++
					o.emit("protocol/drift_repair", -1, -1, "mode=full_fallback")
				}
			}
		}
	}
	o.Stats.DriftMessages += st.Messages - msgsBefore
	return armed, nil
}

// repairRebuild runs one of the drift phase's rebuilds under the round's
// round/kinetic/rebuild span.
func (o *Overlay) repairRebuild(h obs.SpanHandle) error {
	span := h.Start()
	defer span.End()
	_, err := o.Rebuild()
	return err
}

// relocate applies a member's refreshed coordinates to the overlay's grid
// bookkeeping: position and polar update in place, and a member that
// crossed into another grid cell hands its membership over (one message),
// resigning its representative role if it held one. The retained build
// state sees the same move, which dirties exactly the two cells involved.
func (o *Overlay) relocate(id int32, p geom.Point2, st *OpStats) {
	n := &o.nodes[id]
	n.pos = p
	polar := p.PolarAround(o.cfg.Source)
	if polar.R > o.cfg.Scale {
		polar.R = o.cfg.Scale // clamp into the outer ring, as joins do
	}
	n.polar = polar
	if newCell := int32(o.g.CellOf(polar)); newCell != n.cell {
		st.Messages++ // membership handoff between the two cells
		o.removeMember(n.cell, id)
		o.resign(id, st)
		n.cell = newCell
		o.members[newCell] = append(o.members[newCell], id)
	}
	if o.bs.Present(int(id)) {
		o.bs.Move(int(id), p)
	}
}
