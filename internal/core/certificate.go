package core

import (
	"fmt"
	"slices"

	"omtree/internal/geom"
)

// Certificate is the eq. 7 quality certificate frozen at the end of a
// rebuild: the analytic radius upper bound the grid geometry guarantees,
// and the radius the built tree actually realized over the coordinates it
// was built from. When coordinates drift afterwards, RealizedRadius
// recomputes the second number from refreshed positions while Bound stays
// what was promised — the ratio of the two is the degradation signal the
// protocol's kinetic repair acts on (DESIGN.md §2h).
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

// RealizedRadius recomputes the maximum source-to-member delay of the last
// build's wiring over the current slot positions. Move updates positions
// without rewiring, so after coordinate drift this is the delay the
// certified tree actually achieves — compare against Certificate().Bound.
// Slots added since the last rebuild are not wired yet and are skipped;
// a member whose ancestor chain reaches a slot that left contributes
// nothing, and neither does the departed slot (the overlay layer tracks its
// own live tree for that case). Returns 0 before the first build.
func (s *BuildState) RealizedRadius() float64 {
	if !s.built {
		return 0
	}
	// Delays by node id of the last build; a parent slot maps back to its
	// node id by binary search over the build's ascending node order.
	const unknown = -1.0
	m := len(s.wired)
	delay := make([]float64, m+1)
	for i := range delay {
		delay[i] = unknown
	}
	delay[0] = 0
	nodeOf := func(slot int32) int {
		if slot == 0 {
			return 0
		}
		i, ok := slices.BinarySearch(s.wired, slot)
		if !ok {
			return -1
		}
		return i + 1
	}
	slotOf := func(node int) int32 {
		if node == 0 {
			return 0
		}
		return s.wired[node-1]
	}
	var radius float64
	var chain []int
	for i := 1; i <= m; i++ {
		if delay[i] != unknown || !s.live.has(int(s.wired[i-1])) {
			continue
		}
		// Walk up through live parents to a node with a known delay, then
		// unwind. A chain longer than the tree is a cycle: no delay.
		chain = chain[:0]
		v := i
		for delay[v] == unknown && len(chain) <= m {
			p := s.parent[v]
			if p < 0 || !s.live.has(int(p)) {
				break // not wired into the last build, or the parent left
			}
			chain = append(chain, v)
			if v = nodeOf(p); v < 0 {
				break
			}
		}
		if v < 0 || delay[v] == unknown {
			continue
		}
		for c := len(chain) - 1; c >= 0; c-- {
			u := chain[c]
			delay[u] = delay[v] + s.geo.pos(slotOf(v)).Dist(s.geo.pos(slotOf(u)))
			radius = max(radius, delay[u])
			v = u
		}
	}
	return radius
}
