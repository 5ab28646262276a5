package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/snapshot"
	"omtree/internal/tree"
)

// This file is the BuildState half of the snapshot format (DESIGN.md §2k):
// a deterministic, versionless payload section — versioning lives in the
// snapshot envelope — that round-trips every field a rebuild can observe.
// The `last` result cache is deliberately not serialized: a restored state
// re-derives it on the next Rebuild through the empty-dirty incremental
// path, which produces the identical tree and identical stats.

// PointEncoder writes an absolute position. The default (nil) writes the
// two coordinates as fixed 8-byte floats; a GroupSet snapshot passes an
// interning encoder instead so the shared host population is encoded once
// and every per-group state stores table indices.
type PointEncoder func(e *snapshot.Encoder, p geom.Point2)

// PointDecoder is the reading counterpart of a PointEncoder. Errors
// surface through the decoder's sticky error, not a return value.
type PointDecoder func(d *snapshot.Decoder) geom.Point2

func rawPoint(e *snapshot.Encoder, p geom.Point2) {
	e.Float64(p.X)
	e.Float64(p.Y)
}

func rawPointDecode(d *snapshot.Decoder) geom.Point2 {
	return geom.Point2{X: d.Float64(), Y: d.Float64()}
}

// decodeKMax bounds the grid depth a snapshot may claim: NumCells is
// exponential in k, so an unchecked corrupt depth could demand a huge
// allocation before the length cross-checks run.
const decodeKMax = 30

// EncodeTo appends the state's full serialized form. States owning their
// geometry embed it; states borrowing a shared geometry (multi-group) omit
// it and must be decoded with DecodeBuildStateShared against the same
// substrate. putPt may be nil for the raw fixed-width position encoding.
func (s *BuildState) EncodeTo(e *snapshot.Encoder, putPt PointEncoder) {
	if putPt == nil {
		putPt = rawPoint
	}
	e.Int(s.o.maxOutDegree)
	e.Int(s.o.forceK)
	e.Int(s.o.kMax)
	e.Bool(false) // reserved: once a k-search selector; read and ignored
	e.Bool(s.shared)
	if !s.shared {
		putPt(e, s.geo.source)
		e.Uvarint(uint64(len(s.geo.hosts)))
		// All host positions, including stale ones at absent slots: the
		// geometry must rebuild slot for slot.
		for _, h := range s.geo.hosts {
			putPt(e, h)
		}
		// The cached polar view rides along as two columns so a restore
		// rebuilds the geometry without two trig calls per slot. pts[0] is
		// always the origin and is not written. Like the per-node polar in
		// the protocol section, these are carried as stored, not recomputed.
		for _, p := range s.geo.pts[1:] {
			e.Float64(p.R)
		}
		for _, p := range s.geo.pts[1:] {
			e.Float64(p.Theta)
		}
	}
	e.Uvarint(uint64(len(s.present)))
	e.Bools(s.present)
	e.Float64(s.scale)
	e.Int(s.k)
	e.Bool(s.built)
	e.Bool(s.needFull)
	e.Uvarint(uint64(len(s.members)))
	e.Int32Lists(s.members)
	e.Fixed32s(s.cellOf)
	e.Fixed32s(s.reps)
	e.Fixed32s(s.parent)
	e.Fixed32s(s.cnt1)
	e.Int(s.emptyK)
	e.Int(s.empty1)
	dirty := make([]int, 0, len(s.dirty))
	for c := range s.dirty {
		dirty = append(dirty, c)
	}
	sort.Ints(dirty)
	e.Uvarint(uint64(len(dirty)))
	for _, c := range dirty {
		e.Int(c)
	}
	e.Float64(s.cert.Bound)
	e.Float64(s.cert.Radius)
}

// EncodedSizeBound returns an upper bound on the bytes EncodeTo writes with
// the raw position encoding: fixed-width columns count exactly and every
// varint counts at its widest, so a checkpoint can size its buffer once.
func (s *BuildState) EncodedSizeBound() int {
	const v, f, pt = binary.MaxVarintLen64, 8, 16
	size := 3*v + 2 // options and the two flags after them
	if !s.shared {
		size += pt + v + pt*len(s.geo.hosts) + 2*f*(len(s.geo.pts)-1)
	}
	size += v + len(s.present) + f + v + 2
	size += v + snapshot.Int32ListsLen(s.members)
	size += 4*v + 4*(len(s.cellOf)+len(s.reps)+len(s.parent)+len(s.cnt1))
	size += 2*v + v + v*len(s.dirty) + 2*f
	return size
}

// DecodeBuildState reads a state that owns its geometry, as written by
// EncodeTo on a NewBuildState-constructed state. getPt may be nil for the
// raw position encoding.
func DecodeBuildState(d *snapshot.Decoder, getPt PointDecoder) (*BuildState, error) {
	return decodeBuildState(d, nil, getPt)
}

// DecodeBuildStateShared reads a state that borrows geo, as written by
// EncodeTo on a NewBuildStateShared-constructed state. The caller supplies
// the same (immutable) geometry the encoded state was built over.
func DecodeBuildStateShared(d *snapshot.Decoder, geo *SlotGeometry, getPt PointDecoder) (*BuildState, error) {
	if geo == nil {
		return nil, fmt.Errorf("core: DecodeBuildStateShared needs a geometry")
	}
	return decodeBuildState(d, geo, getPt)
}

func decodeBuildState(d *snapshot.Decoder, geo *SlotGeometry, getPt PointDecoder) (*BuildState, error) {
	raw := getPt == nil
	if raw {
		getPt = rawPointDecode
	}
	corrupt := func(format string, args ...any) (*BuildState, error) {
		return nil, fmt.Errorf("%w: build state: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
	}

	o := options{
		maxOutDegree: d.Int(),
		forceK:       d.Int(),
		kMax:         d.Int(),
	}
	d.Bool() // reserved (see EncodeTo); an old true is harmless, as every k search agrees
	shared := d.Bool()
	if d.Err() == nil && shared != (geo != nil) {
		if shared {
			return corrupt("state borrows a shared geometry; decode with DecodeBuildStateShared")
		}
		return corrupt("state owns its geometry; decode with DecodeBuildState")
	}
	if !shared && d.Err() == nil {
		source := getPt(d)
		nhosts := d.Length(1)
		hosts := make([]geom.Point2, nhosts)
		if raw {
			xy := d.Float64s(2 * nhosts)
			for i := 0; i < len(xy)/2; i++ {
				hosts[i] = geom.Point2{X: xy[2*i], Y: xy[2*i+1]}
			}
		} else {
			for i := range hosts {
				hosts[i] = getPt(d)
			}
		}
		rs := d.Float64s(nhosts)
		thetas := d.Float64s(nhosts)
		if d.Err() == nil {
			// Assemble the geometry directly from the stored polar columns;
			// pts[0] stays the zero-value origin, as NewSlotGeometry leaves it.
			pts := make([]geom.Polar, nhosts+1)
			for i := range rs {
				pts[i+1] = geom.Polar{R: rs[i], Theta: thetas[i]}
			}
			geo = &SlotGeometry{source: source, hosts: hosts, pts: pts}
		}
	}

	nslots := d.Length(1)
	present := d.Bools(nslots)
	scale := d.Float64()
	k := d.Int()
	built := d.Bool()
	needFull := d.Bool()
	ncells := d.Length(1)
	members := d.Int32Lists(ncells)
	cellOf := d.Fixed32s()
	reps := d.Fixed32s()
	parent := d.Fixed32s()
	cnt1 := d.Fixed32s()
	emptyK := d.Int()
	empty1 := d.Int()
	ndirty := d.Length(1)
	dirty := make(map[int]struct{}, ndirty)
	dirtyOK := true
	for i := 0; i < ndirty; i++ {
		c := d.Int()
		if c < 0 || (built && c >= ncells) {
			dirtyOK = false
		}
		dirty[c] = struct{}{}
	}
	cert := Certificate{Bound: d.Float64(), Radius: d.Float64()}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("build state: %w", err)
	}

	// Cross-field consistency: everything a later Rebuild/Add/Remove would
	// index must be in range, so a CRC-valid but logically inconsistent
	// payload fails here instead of panicking mid-protocol.
	variant, degCap, err := variantFor(o.maxOutDegree, naturalDegree2D)
	if err != nil {
		return corrupt("%v", err)
	}
	if nslots != geo.Slots() {
		return corrupt("%d present flags for %d geometry slots", nslots, geo.Slots())
	}
	if nslots < 1 || !present[0] {
		return corrupt("source slot not present")
	}
	if len(cellOf) != nslots || len(parent) != nslots {
		return corrupt("cellOf/parent arrays (%d/%d entries) do not span %d slots", len(cellOf), len(parent), nslots)
	}
	if !dirtyOK || (!built && ndirty > 0) {
		return corrupt("dirty set inconsistent with grid state")
	}
	n := 0
	for sl := 1; sl < nslots; sl++ {
		if present[sl] {
			n++
		}
	}
	if built {
		if k < 1 || k > decodeKMax || !(scale > 0) {
			return corrupt("built state with depth %d scale %v", k, scale)
		}
		if want := grid.NumCells(k); ncells != want || len(reps) != want {
			return corrupt("%d member lists / %d reps for a depth-%d grid (%d cells)", ncells, len(reps), k, want)
		}
		if want := grid.NumCells(k + 1); len(cnt1) != want {
			return corrupt("%d depth-%d+1 counters, want %d", len(cnt1), k, grid.NumCells(k+1))
		}
		for c, list := range members {
			for _, sl := range list {
				if sl < 1 || int(sl) >= nslots {
					return corrupt("cell %d lists slot %d of %d", c, sl, nslots)
				}
				// Once needFull is set, churn stops maintaining the member
				// lists, so absent slots may linger until the full rebuild.
				if !needFull && !present[sl] {
					return corrupt("cell %d lists absent slot %d", c, sl)
				}
			}
		}
		for sl, c := range cellOf {
			if c < -1 || int(c) >= ncells {
				return corrupt("slot %d in cell %d of a %d-cell grid", sl, c, ncells)
			}
		}
		for c, r := range reps {
			if r < -1 || int(r) >= nslots {
				return corrupt("cell %d represented by slot %d", c, r)
			}
		}
	}
	for sl, p := range parent {
		if p < unattachedNode || int(p) >= nslots {
			return corrupt("slot %d parented by slot %d", sl, p)
		}
	}
	if parent[0] != tree.NoParent {
		return corrupt("source slot has a parent")
	}

	s := &BuildState{
		o:        o,
		variant:  variant,
		degCap:   degCap,
		geo:      geo,
		shared:   shared,
		present:  present,
		n:        n,
		scale:    scale,
		k:        k,
		members:  members,
		cellOf:   cellOf,
		reps:     reps,
		parent:   parent,
		cnt1:     cnt1,
		emptyK:   emptyK,
		empty1:   empty1,
		dirty:    dirty,
		needFull: needFull,
		built:    built,
		cert:     cert,
	}
	if built {
		s.g = grid.PolarGrid{K: k, Scale: scale}
		s.g1 = grid.PolarGrid{K: k + 1, Scale: scale}
	}
	return s, nil
}
