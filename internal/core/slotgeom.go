package core

import "omtree/internal/geom"

// SlotGeometry is the geometric half of a BuildState, split out so it can
// be shared: the source, the host positions (host h occupies slot h+1; slot
// 0 is the source itself) and the polar conversion of every host around the
// source. A BuildState created with NewBuildState owns its geometry and
// grows it as Add introduces new slots; one created with
// NewBuildStateShared borrows a read-only SlotGeometry — typically built
// once per source by a multi-group substrate and lent to every group
// rooted there — and never writes it, which is what lets G groups share
// one O(n) coordinate layout instead of cloning it G times.
type SlotGeometry struct {
	source geom.Point2
	hosts  []geom.Point2 // host h <-> slot h+1; the slice may be shared across sources
	pts    []geom.Polar  // slot-indexed polars around source; pts[0] is the origin
}

// NewSlotGeometry converts hosts to polar coordinates around source, once.
// The hosts slice is retained, not copied — callers sharing it across
// several sources' geometries must treat it as immutable.
func NewSlotGeometry(source geom.Point2, hosts []geom.Point2) *SlotGeometry {
	g := &SlotGeometry{
		source: source,
		hosts:  hosts,
		pts:    make([]geom.Polar, len(hosts)+1),
	}
	for h, p := range hosts {
		g.pts[h+1] = p.PolarAround(source)
	}
	return g
}

// Slots returns the number of addressable slots: the source plus one per
// host.
func (g *SlotGeometry) Slots() int { return len(g.hosts) + 1 }

// pos returns the absolute position of a slot.
func (g *SlotGeometry) pos(slot int32) geom.Point2 {
	if slot == 0 {
		return g.source
	}
	return g.hosts[slot-1]
}

// MemoryBytes estimates the geometry's resident size: the polar view plus,
// for an owning state, the host array. Shared geometries report ptsOnly so
// a substrate can count the (shared) host array once.
func (g *SlotGeometry) MemoryBytes(ptsOnly bool) int64 {
	n := int64(len(g.pts)) * 16 // geom.Polar = 2 float64
	if !ptsOnly {
		n += int64(len(g.hosts)) * 16 // geom.Point2 = 2 float64
	}
	return n
}
