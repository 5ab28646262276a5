package multigroup

import (
	"fmt"
	"io"

	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/snapshot"
)

// Crash-safe group state (DESIGN.md §2k). A GroupTree snapshot is the
// group-private delta only — membership, configuration, and the retained
// incremental build state with its frozen certificate. The substrate is
// shared, immutable, and rebuilt by the operator from its own inputs, so
// the snapshot carries just a binding (host count + coordinate checksum)
// and RestoreGroup refuses to graft a delta onto the wrong population.
//
// Snapshots exist for 2-D groups: only they retain incremental state worth
// checkpointing (other dimensions rebuild from scratch every Build).

// WriteSnapshot serializes the group's private state into w as one sealed
// envelope. Deterministic: the same state always produces the same bytes.
func (g *GroupTree) WriteSnapshot(w io.Writer) error {
	if g.bs == nil {
		return fmt.Errorf("multigroup: only 2-D groups snapshot (dim %d rebuilds from scratch)", g.sub.dim)
	}
	var e snapshot.Encoder
	e.Uvarint(uint64(g.sub.Hosts()))
	e.Uvarint(g.sub.Checksum())
	e.String(g.id)
	e.Uvarint(uint64(len(g.cfg.Source)))
	for _, c := range g.cfg.Source {
		e.Float64(c)
	}
	e.Int(g.cfg.MaxOutDegree)
	e.Int(g.cfg.ForceK)
	e.Int(g.cfg.KMax)
	// Membership as ascending host ids (delta-coded): sparse groups on a
	// large substrate stay small on disk.
	e.Uvarint(uint64(g.members.count()))
	prev := 0
	g.members.forEach(func(h int) {
		e.Uvarint(uint64(h - prev))
		prev = h
	})
	g.bs.EncodeTo(&e, nil) // shared state: positions live in the substrate
	_, err := w.Write(snapshot.Seal(snapshot.KindGroupTree, e.Bytes()))
	return err
}

// RestoreGroup reads a snapshot written by GroupTree.WriteSnapshot and
// reattaches the group to this substrate, which must be the same host
// population the snapshot was taken over (checked by count and coordinate
// checksum). Torn or corrupt input fails with an error wrapping
// snapshot.ErrCorrupt — never a panic; an intact snapshot of another
// format version wraps snapshot.ErrVersion. The restored group's id is the
// recorded one; it is not re-registered with the auto-id counter, so
// prefer explicit GroupConfig.IDs when mixing restores with NewGroup.
func (s *Substrate) RestoreGroup(r io.Reader) (*GroupTree, error) {
	if s.dim != 2 {
		return nil, fmt.Errorf("multigroup: only 2-D substrates restore groups (dim %d)", s.dim)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	kind, payload, err := snapshot.Open(data)
	if err != nil {
		return nil, err
	}
	if kind != snapshot.KindGroupTree {
		return nil, fmt.Errorf("%w: payload kind %d is not a group tree", snapshot.ErrCorrupt, kind)
	}
	d := snapshot.NewDecoder(payload)
	corrupt := func(format string, args ...any) (*GroupTree, error) {
		return nil, fmt.Errorf("%w: group tree: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
	}

	hosts := d.Uvarint()
	sum := d.Uvarint()
	id := d.String()
	nsrc := d.Length(8)
	src := make([]float64, nsrc)
	for i := range src {
		src[i] = d.Float64()
	}
	cfg := GroupConfig{
		Source:       src,
		MaxOutDegree: d.Int(),
		ForceK:       d.Int(),
		KMax:         d.Int(),
		ID:           id,
	}
	nmembers := d.Length(1)
	hostIDs := make([]int, nmembers)
	prev := 0
	for i := range hostIDs {
		prev += int(d.Uvarint())
		hostIDs[i] = prev
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("group tree: %w", err)
	}
	if hosts != uint64(s.Hosts()) || sum != s.Checksum() {
		return corrupt("snapshot bound to a %d-host substrate (checksum %#x), this one has %d (%#x)",
			hosts, sum, s.Hosts(), s.Checksum())
	}
	if id == "" {
		return corrupt("empty group id")
	}
	if len(src) != s.dim {
		return corrupt("source has %d coordinates on a %d-D substrate", len(src), s.dim)
	}
	source := geom.Point2{X: src[0], Y: src[1]}
	bs, err := core.DecodeBuildStateShared(d, s.view(source), nil)
	if err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return corrupt("%d trailing bytes after the build state", d.Len())
	}

	g := &GroupTree{sub: s, cfg: cfg, id: id, members: newBitset(s.Hosts())}
	if cfg.MaxOutDegree != 0 {
		g.opts = append(g.opts, core.WithMaxOutDegree(cfg.MaxOutDegree))
	}
	if cfg.ForceK != 0 {
		g.opts = append(g.opts, core.WithForceK(cfg.ForceK))
	}
	if cfg.KMax != 0 {
		g.opts = append(g.opts, core.WithKMax(cfg.KMax))
	}
	for _, h := range hostIDs {
		if h < 0 || h >= s.Hosts() {
			return corrupt("member host %d outside the %d-host substrate", h, s.Hosts())
		}
		if !g.members.set(h) {
			return corrupt("member host %d listed twice", h)
		}
	}
	// The member list and the build state each record the membership; a
	// blob where they disagree would restore a group whose Has and Leave
	// contradict its tree.
	for h := 0; h < s.Hosts(); h++ {
		if g.members.get(h) != bs.Present(h+1) {
			return corrupt("member list and build state disagree on host %d", h)
		}
	}
	g.bs = bs
	return g, nil
}
