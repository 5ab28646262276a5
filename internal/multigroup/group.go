package multigroup

import (
	"fmt"

	"omtree/internal/core"
	"omtree/internal/geom"
)

// GroupConfig describes one multicast group on a substrate.
type GroupConfig struct {
	// Source is the group's sender position, one coordinate per substrate
	// axis.
	Source []float64
	// MaxOutDegree caps the out-degree (0 means the dimension's natural
	// degree, as in core.Build2).
	MaxOutDegree int
	// ForceK forces the grid depth (0 means automatic; 2-D only).
	ForceK int
	// KMax caps the automatic grid depth (0 means the n-derived default).
	KMax int
	// ID labels the group's metrics series; auto-assigned ("g1", "g2", ...)
	// when empty. The registry's label cap bounds how many distinct ids get
	// their own series.
	ID string
}

// GroupTree is one group's private tree state over a shared Substrate. It
// is not safe for concurrent use, but distinct GroupTrees on one substrate
// are independent: builds touch only group-private state.
type GroupTree struct {
	sub     *Substrate
	id      string
	cfg     GroupConfig
	members bitset

	// 2-D: persistent incremental state borrowing the source's shared view.
	bs *core.BuildState
	// 3-D/d-D: one-shot build inputs, reassembled per Build.
	src3 geom.Point3
	srcD geom.Vec
	opts []core.Option
}

// NewGroup creates an empty group on the substrate.
func (s *Substrate) NewGroup(cfg GroupConfig) (*GroupTree, error) {
	if len(cfg.Source) != s.dim {
		return nil, fmt.Errorf("multigroup: source has %d coordinates on a %d-D substrate", len(cfg.Source), s.dim)
	}
	if !geom.Vec(cfg.Source).IsFinite() {
		return nil, fmt.Errorf("multigroup: source %v: %w", cfg.Source, core.ErrNonFinite)
	}
	if cfg.ForceK != 0 && s.dim != 2 {
		return nil, fmt.Errorf("multigroup: ForceK applies to 2-D groups only")
	}
	g := &GroupTree{sub: s, cfg: cfg, id: cfg.ID, members: newBitset(s.Hosts())}
	if g.id == "" {
		g.id = fmt.Sprintf("g%d", s.groupID.Add(1))
	}
	if cfg.MaxOutDegree != 0 {
		g.opts = append(g.opts, core.WithMaxOutDegree(cfg.MaxOutDegree))
	}
	if cfg.ForceK != 0 {
		g.opts = append(g.opts, core.WithForceK(cfg.ForceK))
	}
	if cfg.KMax != 0 {
		g.opts = append(g.opts, core.WithKMax(cfg.KMax))
	}
	switch s.dim {
	case 2:
		src := geom.Point2{X: cfg.Source[0], Y: cfg.Source[1]}
		bs, err := core.NewBuildStateShared(s.view(src), g.opts...)
		if err != nil {
			return nil, err
		}
		g.bs = bs
	case 3:
		g.src3 = geom.Point3{X: cfg.Source[0], Y: cfg.Source[1], Z: cfg.Source[2]}
	default:
		g.srcD = append(geom.Vec(nil), cfg.Source...)
	}
	return g, nil
}

// ID returns the group's metrics label.
func (g *GroupTree) ID() string { return g.id }

// Size returns the current member count.
func (g *GroupTree) Size() int { return g.members.count() }

// Has reports whether host h is a member.
func (g *GroupTree) Has(h int) bool { return g.members.get(h) }

// Members returns the member hosts in ascending order — the tree's node
// order: node i >= 1 of the last Build is Members()[i-1].
func (g *GroupTree) Members() []int {
	out := make([]int, 0, g.members.count())
	g.members.forEach(func(h int) { out = append(out, h) })
	return out
}

// Join adds host h to the group. Joining a member is an error, not a
// panic: concurrent-group drivers (the fuzzer, the protocol layer) route
// caller mistakes here.
func (g *GroupTree) Join(h int) error {
	if h < 0 || h >= g.sub.Hosts() {
		return fmt.Errorf("multigroup: host %d outside the %d-host substrate", h, g.sub.Hosts())
	}
	if !g.members.set(h) {
		return fmt.Errorf("multigroup: host %d already a member of %s", h, g.id)
	}
	if g.bs != nil {
		g.bs.AddSlot(h + 1)
	}
	g.sub.reg.LabeledCounter("multigroup/joins", "group", g.id).Inc()
	g.sub.reg.LabeledGauge("multigroup/members", "group", g.id).Set(float64(g.members.count()))
	return nil
}

// Leave removes host h from the group.
func (g *GroupTree) Leave(h int) error {
	if h < 0 || h >= g.sub.Hosts() || !g.members.clear(h) {
		return fmt.Errorf("multigroup: host %d not a member of %s", h, g.id)
	}
	if g.bs != nil {
		g.bs.Remove(h + 1)
	}
	g.sub.reg.LabeledCounter("multigroup/leaves", "group", g.id).Inc()
	g.sub.reg.LabeledGauge("multigroup/members", "group", g.id).Set(float64(g.members.count()))
	return nil
}

// Build returns the group's tree over the current membership, exactly what
// core.Build2/Build3/BuildD would return for the same source and the
// members' coordinates in ascending host order. On a 2-D substrate the
// build is incremental (core.BuildState semantics: the boolean reports
// whether a full rebuild ran) and amortizes across repeated calls; other
// dimensions rebuild from scratch each call.
func (g *GroupTree) Build() (*core.Result, bool, error) {
	var res *core.Result
	full := true
	var err error
	switch g.sub.dim {
	case 2:
		res, full, err = g.bs.Rebuild()
	case 3:
		recv := make([]geom.Point3, 0, g.members.count())
		g.members.forEach(func(h int) {
			recv = append(recv, geom.Point3{X: g.sub.axes[0][h], Y: g.sub.axes[1][h], Z: g.sub.axes[2][h]})
		})
		res, err = core.Build3(g.src3, recv, g.opts...)
	default:
		recv := make([]geom.Vec, 0, g.members.count())
		g.members.forEach(func(h int) {
			v := make(geom.Vec, g.sub.dim)
			for a := range v {
				v[a] = g.sub.axes[a][h]
			}
			recv = append(recv, v)
		})
		res, err = core.BuildD(g.srcD, recv, g.opts...)
	}
	if err != nil {
		return nil, full, err
	}
	reg := g.sub.reg
	if full {
		reg.LabeledCounter("multigroup/rebuilds_full", "group", g.id).Inc()
	} else {
		reg.LabeledCounter("multigroup/rebuilds_incremental", "group", g.id).Inc()
	}
	reg.LabeledGauge("multigroup/radius", "group", g.id).Set(res.Radius)
	reg.LabeledGauge("multigroup/bound", "group", g.id).Set(res.Bound)
	return res, full, nil
}

// Certificate returns the eq. 7 certificate of the last completed 2-D
// build (the zero value on other dimensions or before any build).
func (g *GroupTree) Certificate() core.Certificate {
	if g.bs == nil {
		return core.Certificate{}
	}
	return g.bs.Certificate()
}

// DirtyFraction reports the 2-D incremental state's dirty-cell fraction
// (1 on other dimensions: every build is from scratch).
func (g *GroupTree) DirtyFraction() float64 {
	if g.bs == nil {
		return 1
	}
	return g.bs.DirtyFraction()
}

// MemoryBytes estimates the group's private resident size: the membership
// bitset plus the incremental build state. The shared substrate is counted
// once by Substrate.MemoryBytes, not per group — that difference is the
// entire point of the split.
func (g *GroupTree) MemoryBytes() int64 {
	n := g.members.memoryBytes()
	if g.bs != nil {
		n += g.bs.MemoryBytes()
	}
	return n
}
