package protocol

import (
	"fmt"
	"sort"

	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
)

// GroupSet runs several multicast sessions — one Overlay per group — over
// ONE transport and ONE failure-detector tuning, the protocol face of the
// multi-group substrate: a deployment keeps a single control-plane socket
// and heartbeat schedule per host, not one per group the host belongs to.
//
// Create injects the shared transport into every group (a Config carrying
// its own Transport or Faults is rejected: the set owns both), and
// MaintenanceAll runs one failure-detector round across all groups while
// advancing the shared transport's virtual round clock exactly once — G
// groups share the heartbeat cadence instead of multiplying it. The set is
// the one owner of that clock and of the flight recorder's: a group's own
// MaintenanceRound ticks neither.
//
// Per-group control traffic lands on the attached registry as labeled
// counters ("groupset/joins{group=...}" etc.), bounded by the registry's
// label cap. Like Overlay, a GroupSet is not safe for concurrent use.
type GroupSet struct {
	transport Transport // nil when the set is reliable
	faults    FaultConfig
	reg       *obs.Registry

	groups map[string]*Overlay
	names  []string // sorted; deterministic MaintenanceAll order

	// flight is the set-level flight recorder (see SetFlight); ticked once
	// per MaintenanceAll sweep, never per group.
	flight *flight.Recorder
}

// NewGroupSet creates an empty set. A nil transport makes every group
// reliable (the original analyzable model); fault tuning without a
// transport is rejected exactly as in Config.Validate. The registry may be
// nil.
func NewGroupSet(t Transport, faults FaultConfig, reg *obs.Registry) (*GroupSet, error) {
	if faults != (FaultConfig{}) {
		if t == nil {
			return nil, fmt.Errorf("protocol: group set fault tuning configured with a nil transport")
		}
		if err := faults.validate(); err != nil {
			return nil, err
		}
	} else if t != nil {
		faults = DefaultFaultConfig()
	}
	return &GroupSet{transport: t, faults: faults, reg: reg, groups: make(map[string]*Overlay)}, nil
}

// Create starts a new group's session. cfg must leave Transport and Faults
// zero — the set injects its shared ones — and the name must be new.
func (s *GroupSet) Create(name string, cfg Config) (*Overlay, error) {
	if name == "" {
		return nil, fmt.Errorf("protocol: group name must be non-empty")
	}
	if _, ok := s.groups[name]; ok {
		return nil, fmt.Errorf("protocol: group %q already exists", name)
	}
	if cfg.Transport != nil {
		return nil, fmt.Errorf("protocol: group %q supplies its own transport; the set owns the shared one", name)
	}
	if cfg.Faults != (FaultConfig{}) {
		return nil, fmt.Errorf("protocol: group %q supplies its own fault tuning; the set owns the shared one", name)
	}
	if s.transport != nil {
		cfg.Transport = s.transport
		cfg.Faults = s.faults
	}
	o, err := New(cfg)
	if err != nil {
		return nil, err
	}
	o.reg = s.reg // build phases and overlay gauges share the set's registry
	// Group rebuilds land "build" samples on the set's recorder, but the
	// set sweep owns both round clocks: a per-group tick would advance
	// them G times per MaintenanceAll.
	o.flight, o.flightShared = s.flight, true
	s.groups[name] = o
	i := sort.SearchStrings(s.names, name)
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = name
	s.reg.LabeledCounter("groupset/created", "group", name).Inc()
	return o, nil
}

// Group returns the named group's session (nil if absent) for operations
// the set does not wrap: Snapshot, Audit, drift control, ...
func (s *GroupSet) Group(name string) *Overlay { return s.groups[name] }

// Names returns the group names in sorted order.
func (s *GroupSet) Names() []string { return append([]string(nil), s.names...) }

// Len returns the number of groups.
func (s *GroupSet) Len() int { return len(s.groups) }

// Join adds a member to the named group.
func (s *GroupSet) Join(group string, p geom.Point2) (int, OpStats, error) {
	o, ok := s.groups[group]
	if !ok {
		return 0, OpStats{}, fmt.Errorf("protocol: no group %q", group)
	}
	id, st, err := o.Join(p)
	if err == nil {
		s.reg.LabeledCounter("groupset/joins", "group", group).Inc()
		s.reg.LabeledGauge("groupset/members", "group", group).Set(float64(o.N()))
	}
	return id, st, err
}

// Leave removes a member from the named group.
func (s *GroupSet) Leave(group string, id int) (OpStats, error) {
	o, ok := s.groups[group]
	if !ok {
		return OpStats{}, fmt.Errorf("protocol: no group %q", group)
	}
	st, err := o.Leave(id)
	if err == nil {
		s.reg.LabeledCounter("groupset/leaves", "group", group).Inc()
		s.reg.LabeledGauge("groupset/members", "group", group).Set(float64(o.N()))
	}
	return st, err
}

// Rebuild refreshes the named group's tree from its retained build state.
func (s *GroupSet) Rebuild(group string) (OpStats, error) {
	o, ok := s.groups[group]
	if !ok {
		return OpStats{}, fmt.Errorf("protocol: no group %q", group)
	}
	st, err := o.Rebuild()
	if err == nil {
		s.reg.LabeledCounter("groupset/rebuilds", "group", group).Inc()
	}
	return st, err
}

// SetFlight attaches a flight recorder to the set and to every group
// (current and future): MaintenanceAll ticks the recorder's round clock
// once per sweep — after all groups finish, so a sample sees every group's
// end-of-round state — and each group's rebuilds land immediate "build"
// samples. The per-group round tick stays suppressed; the set owns the
// clock.
func (s *GroupSet) SetFlight(fr *flight.Recorder) {
	s.flight = fr
	for _, o := range s.groups {
		o.flight = fr
	}
}

// Flight returns the attached flight recorder (nil when sampling is off).
func (s *GroupSet) Flight() *flight.Recorder { return s.flight }

// MaintenanceAll runs one failure-detector round in every group (sorted
// name order), advancing the shared transport's round clock exactly once,
// before the first group: scheduled fault events fire once per sweep, and
// every group's detector observes the same epoch. Returns per-group stats
// keyed by name; the first error aborts the sweep.
func (s *GroupSet) MaintenanceAll() (map[string]MaintenanceStats, error) {
	if rt, ok := s.transport.(RoundTicker); ok {
		rt.Tick()
	}
	out := make(map[string]MaintenanceStats, len(s.groups))
	for _, name := range s.names {
		ms, err := s.groups[name].MaintenanceRound()
		if err != nil {
			return out, fmt.Errorf("protocol: group %q maintenance: %w", name, err)
		}
		out[name] = ms
	}
	// One flight round per sweep, sampled after every group settles.
	s.flight.Tick()
	return out, nil
}
