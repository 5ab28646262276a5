package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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
	slots := s.geo.Slots()
	e.Uvarint(uint64(slots))
	for sl := 0; sl < slots; sl++ {
		e.Bool(s.live.has(sl))
	}
	e.Float64(s.scale)
	e.Int(s.k)
	e.Bool(s.built)
	e.Bool(s.needFull)
	e.Uvarint(uint64(len(s.members)))
	e.Int32Lists(s.members)
	// The slot-indexed cell and parent columns derive from the layout in two
	// passes over the encoder's buffer, a fill and a scatter of the
	// exceptions, or are written back as a decoded checkpoint held them
	// until its first mutation; no slot-sized array is built.
	if s.legacy != nil {
		e.Fixed32s(s.legacy.cellOf)
	} else {
		// A slot's entry is the cell whose member list holds it, -1 if none
		// does, and 0 for the source. While a full rebuild is pending the
		// lists are frozen: they may still hold slots that left.
		e.Uvarint(uint64(slots))
		col := e.Fixed32Run(slots, -1)
		e.SetFixed32(col, 0, 0)
		if s.built {
			for c, list := range s.members {
				for _, sl := range list {
					e.SetFixed32(col, int(sl), int32(c))
				}
			}
		}
	}
	e.Fixed32s(s.reps)
	if s.legacy != nil {
		e.Fixed32s(s.legacy.parent)
	} else {
		// The last build's parents under their slots; unattachedNode elsewhere.
		e.Uvarint(uint64(slots))
		col := e.Fixed32Run(slots, unattachedNode)
		e.SetFixed32(col, 0, tree.NoParent)
		for i, sl := range s.wired {
			e.SetFixed32(col, int(sl), s.parent[i+1])
		}
	}
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

// legacyColumns are the slot-indexed cell and parent columns of a decoded
// checkpoint whose values the layout does not keep, as read.
type legacyColumns struct {
	cellOf, parent []int32
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
	slots := s.geo.Slots()
	size += v + slots + f + v + 2
	size += v + snapshot.Int32ListsLen(s.members)
	size += 4*v + 4*(2*slots+len(s.reps)+len(s.cnt1))
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
	present := d.BoolBits(nslots)
	scale := d.Float64()
	k := d.Int()
	built := d.Bool()
	needFull := d.Bool()
	ncells := d.Length(1)
	members := d.Int32Lists(ncells)
	cellCol := d.Fixed32View(d.Length(4))
	reps := d.Fixed32s()
	parentCol := d.Fixed32View(d.Length(4))
	cnt1 := d.Fixed32s()
	emptyK := d.Int()
	empty1 := d.Int()
	ndirty := d.Length(1)
	// A checkpoint lists the dirty cells but not their pending
	// representatives, so each is re-elected at the next rebuild.
	dirty := make(map[int]int32, ndirty)
	dirtyOK := true
	for i := 0; i < ndirty; i++ {
		c := d.Int()
		if c < 0 || (built && c >= ncells) {
			dirtyOK = false
		}
		dirty[c] = repRescan
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
	live := slotSet{words: present}
	if nslots < 1 || !live.has(0) {
		return corrupt("source slot not present")
	}
	if cellCol.Len() != nslots || parentCol.Len() != nslots {
		return corrupt("cellOf/parent arrays (%d/%d entries) do not span %d slots", cellCol.Len(), parentCol.Len(), nslots)
	}
	if !dirtyOK || (!built && ndirty > 0) {
		return corrupt("dirty set inconsistent with grid state")
	}
	n := -1 // the source's bit is not a receiver
	for _, w := range present {
		n += bits.OnesCount64(w)
	}
	// The cell column matches what the layout derives (see EncodeTo) when
	// the source reads 0 and exactly the listed slots read their cell.
	cellsMatch, filed := cellCol.At(0) == 0, 0
	var g grid.PolarGrid
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
		g = grid.PolarGrid{K: k, Scale: scale}
		for c, list := range members {
			for i, sl := range list {
				if sl < 1 || int(sl) >= nslots {
					return corrupt("cell %d lists slot %d of %d", c, sl, nslots)
				}
				onFile := cellCol.At(int(sl)) == int32(c)
				cellsMatch = cellsMatch && onFile
				// Once needFull is set, churn stops maintaining the member
				// lists, so absent slots may linger until the full rebuild.
				if needFull {
					continue
				}
				// Otherwise the lists hold exactly the live slots, ascending,
				// each filed under its cell in the cell column too (so each
				// is listed once).
				if !live.has(int(sl)) {
					return corrupt("cell %d lists absent slot %d", c, sl)
				}
				if i > 0 && sl <= list[i-1] {
					return corrupt("cell %d lists slot %d out of order", c, sl)
				}
				if !onFile {
					return corrupt("cell %d lists slot %d, filed under cell %d", c, sl, cellCol.At(int(sl)))
				}
			}
			filed += len(list)
		}
		if !needFull && filed != n {
			return corrupt("member lists hold %d slots, %d are live", filed, n)
		}
		for c, r := range reps {
			if r < -1 || int(r) >= nslots {
				return corrupt("cell %d represented by slot %d", c, r)
			}
			// A clean cell is wired from its representative as is, so it
			// must be one of its members (and cell 0 has none: the source
			// anchors ring 0).
			if _, isDirty := dirty[c]; needFull || isDirty {
				continue
			}
			if _, ok := slices.BinarySearch(members[c], r); (c == 0 || len(members[c]) == 0) != (r == -1) || (r >= 0 && !ok) {
				return corrupt("cell %d represented by slot %d, not a member", c, r)
			}
		}
	}
	if parentCol.At(0) != tree.NoParent {
		return corrupt("source slot has a parent")
	}
	// One pass over both columns: range checks, the wired slots (those with
	// a parent), and whether each column is the one the layout derives.
	wiredN, parentsMatch := 0, true
	for sl := 1; sl < nslots; sl++ {
		if c := cellCol.At(sl); built && (c < -1 || int(c) >= ncells) {
			return corrupt("slot %d in cell %d of a %d-cell grid", sl, c, ncells)
		} else if c != -1 {
			filed--
		}
		switch p := parentCol.At(sl); {
		case p < unattachedNode || int(p) >= nslots:
			return corrupt("slot %d parented by slot %d", sl, p)
		case p >= 0:
			wiredN++
		case p != unattachedNode:
			parentsMatch = false
		}
	}
	cellsMatch = cellsMatch && filed == 0

	// Fold the parent column into the last build's node order.
	wired := make([]int32, 0, wiredN)
	parent := make([]int32, 1, wiredN+1)
	parent[0] = tree.NoParent
	for sl := 1; sl < nslots; sl++ {
		if p := parentCol.At(sl); p >= 0 {
			wired = append(wired, int32(sl))
			parent = append(parent, p)
		}
	}

	s := &BuildState{
		o:        o,
		variant:  variant,
		degCap:   degCap,
		geo:      geo,
		shared:   shared,
		live:     live,
		n:        n,
		scale:    scale,
		k:        k,
		g:        g,
		members:  members,
		reps:     reps,
		wired:    wired,
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
		s.g1 = grid.PolarGrid{K: k + 1, Scale: scale}
	}
	// A checkpoint can hold values the layout does not keep: the cell of a
	// slot that left while a full rebuild was pending (that rebuild never
	// clears it), or a parent entry no build writes. Such columns are kept
	// as read, so the state re-encodes to the same bytes, until the first
	// mutation; the columns a state writes itself always derive back.
	if !cellsMatch || !parentsMatch {
		s.legacy = &legacyColumns{cellOf: make([]int32, nslots), parent: make([]int32, nslots)}
		for sl := range nslots {
			s.legacy.cellOf[sl], s.legacy.parent[sl] = cellCol.At(sl), parentCol.At(sl)
		}
	}
	return s, nil
}
