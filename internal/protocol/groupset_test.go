package protocol

import (
	"strings"
	"testing"

	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/rng"
)

func groupCfg() Config {
	return Config{Scale: 1, K: 3, MaxOutDegree: 6}
}

func TestGroupSetReliableBasics(t *testing.T) {
	reg := obs.New()
	gs, err := NewGroupSet(nil, FaultConfig{}, reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"news", "sports", "music"} {
		if _, err := gs.Create(name, groupCfg()); err != nil {
			t.Fatal(err)
		}
	}
	if gs.Len() != 3 {
		t.Fatalf("Len = %d", gs.Len())
	}
	if got := gs.Names(); len(got) != 3 || got[0] != "music" || got[1] != "news" || got[2] != "sports" {
		t.Fatalf("Names() = %v, want sorted", got)
	}
	// Membership ops per group; hosts may appear in several groups.
	r := rng.New(31)
	ids := map[string][]int{}
	for i := 0; i < 30; i++ {
		p := r.UniformDisk(1)
		for _, name := range gs.Names() {
			if i%2 == 0 || name == "news" {
				id, _, err := gs.Join(name, p)
				if err != nil {
					t.Fatal(err)
				}
				ids[name] = append(ids[name], id)
			}
		}
	}
	if n := gs.Group("news").N(); n != 31 {
		t.Errorf("news has %d members, want 31", n)
	}
	if _, err := gs.Leave("news", ids["news"][3]); err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Rebuild("sports"); err != nil {
		t.Fatal(err)
	}
	for _, name := range gs.Names() {
		o := gs.Group(name)
		if err := o.Audit(); err != nil {
			t.Fatalf("group %s: %v", name, err)
		}
		if _, err := o.Radius(); err != nil {
			t.Fatalf("group %s: %v", name, err)
		}
	}
	// Per-group labeled series landed on the shared registry.
	snap := reg.Snapshot()
	found := map[string]bool{}
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "groupset/joins{") {
			found[c.Name] = true
		}
	}
	for _, name := range []string{"news", "sports", "music"} {
		if !found[`groupset/joins{group="`+name+`"}`] {
			t.Errorf("missing labeled join counter for %s (have %v)", name, found)
		}
	}
	// Unknown group errors.
	if _, _, err := gs.Join("nope", geom.Point2{}); err == nil {
		t.Error("join on unknown group must fail")
	}
	if _, err := gs.Leave("nope", 1); err == nil {
		t.Error("leave on unknown group must fail")
	}
	if _, err := gs.Rebuild("nope"); err == nil {
		t.Error("rebuild on unknown group must fail")
	}
	if gs.Group("nope") != nil {
		t.Error("unknown group must be nil")
	}
}

func TestGroupSetCreateValidation(t *testing.T) {
	gs, err := NewGroupSet(nil, FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Create("", groupCfg()); err == nil {
		t.Error("empty name must be rejected")
	}
	if _, err := gs.Create("a", groupCfg()); err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Create("a", groupCfg()); err == nil {
		t.Error("duplicate name must be rejected")
	}
	cfg := groupCfg()
	plane, err := faultplane.New(faultplane.Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transport = plane
	if _, err := gs.Create("b", cfg); err == nil {
		t.Error("per-group transport must be rejected")
	}
	cfg = groupCfg()
	cfg.Faults = DefaultFaultConfig()
	if _, err := gs.Create("c", cfg); err == nil {
		t.Error("per-group fault tuning must be rejected")
	}
	if _, err := gs.Create("d", Config{}); err == nil {
		t.Error("invalid group config must propagate New's error")
	}
	// Set-level validation: faults without transport, bad faults.
	if _, err := NewGroupSet(nil, DefaultFaultConfig(), nil); err == nil {
		t.Error("fault tuning without a transport must be rejected")
	}
	bad := DefaultFaultConfig()
	bad.SuspectAfter = 0
	if _, err := NewGroupSet(plane, bad, nil); err == nil {
		t.Error("invalid fault tuning must be rejected")
	}
}

// TestGroupSetSharedTransport drives several groups over one lossy
// faultplane: every group's control traffic flows through the same plane,
// and MaintenanceAll advances the shared round clock once per sweep, not
// once per group.
func TestGroupSetSharedTransport(t *testing.T) {
	plane, err := faultplane.New(faultplane.Scenario{Seed: 9, LossRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGroupSet(plane, FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d"}
	for _, name := range names {
		if _, err := gs.Create(name, groupCfg()); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(77)
	joined := 0
	for i := 0; i < 25; i++ {
		p := r.UniformDisk(1)
		for _, name := range names {
			if _, _, err := gs.Join(name, p); err == nil {
				joined++
			}
		}
	}
	if joined == 0 {
		t.Fatal("no join survived 20% loss; transport wiring is broken")
	}
	var attempts int
	for _, name := range names {
		attempts += gs.Group(name).Stats.Attempts
	}
	if attempts == 0 {
		t.Fatal("no control attempts hit the shared transport")
	}
	before := plane.Ticks()
	for sweep := 0; sweep < 3; sweep++ {
		if _, err := gs.MaintenanceAll(); err != nil {
			t.Fatal(err)
		}
	}
	if got := plane.Ticks() - before; got != 3 {
		t.Errorf("shared round clock advanced %d ticks over 3 sweeps, want 3 (one per sweep, not per group)", got)
	}
	// Converge and audit every group after the lossy churn.
	plane.SetActive(false)
	for sweep := 0; sweep < 8; sweep++ {
		if _, err := gs.MaintenanceAll(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		if err := gs.Group(name).Audit(); err != nil {
			t.Fatalf("group %s after convergence: %v", name, err)
		}
	}
}

// TestGroupSetEmptySweepTicksClock: MaintenanceAll advances the shared
// round clock once per sweep even when the set has no group to run yet.
func TestGroupSetEmptySweepTicksClock(t *testing.T) {
	plane, err := faultplane.New(faultplane.Scenario{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGroupSet(plane, FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.MaintenanceAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Create("a", groupCfg()); err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 3; sweep++ {
		if _, err := gs.MaintenanceAll(); err != nil {
			t.Fatal(err)
		}
	}
	if got := plane.Ticks(); got != 4 {
		t.Errorf("4 sweeps, the first over an empty set, advanced the clock %d ticks, want 4", got)
	}
}

// TestGroupRoundLeavesSetClocks: a group's own MaintenanceRound, run
// outside a sweep, ticks neither the shared transport's round clock nor
// the set's flight recorder; the set's sweep owns both.
func TestGroupRoundLeavesSetClocks(t *testing.T) {
	plane, err := faultplane.New(faultplane.Scenario{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGroupSet(plane, FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fr := flight.New(obs.New(), flight.Config{})
	gs.SetFlight(fr)
	if _, err := gs.Create("a", groupCfg()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, err := gs.Group("a").MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	if got := plane.Ticks(); got != 0 {
		t.Errorf("3 group rounds outside a sweep advanced the shared clock %d ticks, want 0", got)
	}
	if got := fr.Rounds(); got != 0 {
		t.Errorf("3 group rounds outside a sweep advanced the flight clock %d rounds, want 0", got)
	}
	if _, err := gs.MaintenanceAll(); err != nil {
		t.Fatal(err)
	}
	if plane.Ticks() != 1 || fr.Rounds() != 1 {
		t.Errorf("one sweep: shared clock %d, flight clock %d, want 1 and 1", plane.Ticks(), fr.Rounds())
	}
}
