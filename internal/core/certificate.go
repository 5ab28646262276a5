package core

import (
	"fmt"

	"omtree/internal/geom"
)

// Certificate is the eq. 7 quality certificate frozen at the end of a
// rebuild: the analytic radius upper bound the grid geometry guarantees,
// and the radius the built tree actually realized over the coordinates it
// was built from. When coordinates drift afterwards, the protocol
// re-measures the radius over its live tree and refreshed positions while
// Bound stays what was promised — the ratio of the two is the degradation
// signal its kinetic repair acts on (DESIGN.md §2h).
type Certificate struct {
	// Bound is the certified eq. 7 radius upper bound at build time (0
	// when the last build was degenerate or none has run).
	Bound float64
	// Radius is the realized radius at build time.
	Radius float64
}

// Certificate returns the certificate of the last completed rebuild; the
// zero value before any build (or after a degenerate one).
func (s *BuildState) Certificate() Certificate { return s.cert }

// Move relocates a live member to a new position: bookkeeping-wise a
// Remove followed by an Add at the same slot, so every exactness guard
// (scale growth/shrink, interior-occupancy counters at depths k and k+1,
// dirty-cell marking) is exactly the one the churn paths already enforce.
// Moving to the identical position is a no-op and keeps the result cache.
func (s *BuildState) Move(slot int, p geom.Point2) {
	if !s.Present(slot) {
		panic(fmt.Sprintf("core: BuildState.Move slot %d not present", slot))
	}
	if s.geo.pos(int32(slot)) == p {
		return
	}
	if s.shared {
		panic("core: BuildState.Move on shared geometry (immutable positions)")
	}
	s.Remove(slot)
	s.Add(slot, p)
}

// DirtyFraction is the fraction of grid cells whose membership changed
// since the last rebuild — the knob a repair policy compares against its
// full-rebuild cutoff. It reports 1 when the next rebuild runs from
// scratch anyway (never built, forced, or an exactness guard tripped):
// there is no local repair cheaper than the full rebuild in that state.
func (s *BuildState) DirtyFraction() float64 {
	if !s.built || s.needFull || len(s.members) == 0 {
		return 1
	}
	return float64(len(s.dirty)) / float64(len(s.members))
}

// ForceFull makes the next Rebuild run from scratch even if the dirty-cell
// incremental path would have been exact — the escape hatch for a caller
// that wants the periodic-full-refresh behavior (and its per-member
// message cost) on demand.
func (s *BuildState) ForceFull() {
	s.needFull = true
	s.last, s.legacy = nil, nil
}
