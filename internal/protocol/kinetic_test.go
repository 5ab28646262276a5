package protocol

import (
	"math"
	"testing"

	"omtree/internal/coords"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/obs/trace"
	"omtree/internal/rng"
)

// driftSession builds a reliable overlay of n members, arms the
// certificate with one rebuild, and attaches a drift model.
func driftSession(t *testing.T, n int, seed uint64, dcfg DriftConfig, mcfg coords.DriftConfig) *Overlay {
	t.Helper()
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: SuggestK(n), MaxOutDegree: 6, Drift: dcfg})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	m, err := coords.NewDriftModel(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetDrift(m); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestSetDriftRequiresConfig(t *testing.T) {
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := coords.NewDriftModel(coords.DriftConfig{Seed: 1, VelocityMean: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetDrift(m); err == nil {
		t.Fatal("SetDrift without Config.Drift tuning must fail")
	}
	if err := o.SetDrift(nil); err != nil {
		t.Fatalf("detaching a never-attached model: %v", err)
	}
}

// Under jump-dominated drift (route changes relocating a few nodes per
// epoch) the local policy must detect certificate degradation, repair it
// back to the certified radius, and keep the audit clean.
func TestDriftLocalRepairRestoresCertificate(t *testing.T) {
	o := driftSession(t, 300, 17,
		DriftConfig{ReestimatePeriod: 2, DegradationThreshold: 1.05, Policy: RepairLocal},
		coords.DriftConfig{Seed: 17, JumpRate: 0.01, JumpMean: 0.2, InflationPerEpoch: 0.05})
	sawRepair := false
	for round := 0; round < 24; round++ {
		ms, err := o.MaintenanceRound()
		if err != nil {
			t.Fatal(err)
		}
		if ms.RepairedLocal > 0 || ms.RepairedFull > 0 {
			sawRepair = true
			// A repair re-freezes the certificate, so the ratio must sit
			// back at 1 on any round that repaired.
			if ms.CertRatio > 1+1e-9 {
				t.Fatalf("round %d: repair left cert ratio %v above 1", round, ms.CertRatio)
			}
		}
	}
	if !sawRepair {
		t.Fatal("drift never triggered a repair over 24 rounds")
	}
	if o.Stats.DriftReestimates == 0 || o.Stats.DriftedNodes == 0 {
		t.Fatalf("drift accounting empty: %+v", o.Stats)
	}
	if o.Stats.LocalRepairs == 0 {
		t.Fatalf("local policy never used the incremental path: %+v", o.Stats)
	}
	// The acceptance criterion: repairs keep the realized radius within the
	// eq. 7 bound the certificate promised.
	if r, b := o.RealizedRadius(), o.bs.Certificate().Bound; r > b*(1+1e-9) {
		t.Fatalf("realized radius %v ended above the eq. 7 bound %v", r, b)
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("audit after kinetic repairs: %v", err)
	}
}

// The monitoring-only policy must track the degradation without ever
// rewiring the tree.
func TestDriftPolicyNoneMonitorsOnly(t *testing.T) {
	o := driftSession(t, 200, 5,
		DriftConfig{ReestimatePeriod: 1, Policy: RepairNone},
		coords.DriftConfig{Seed: 5, VelocityMean: 0.02})
	rebuilds := o.Stats.Rebuilds
	var last MaintenanceStats
	for round := 0; round < 12; round++ {
		ms, err := o.MaintenanceRound()
		if err != nil {
			t.Fatal(err)
		}
		last = ms
	}
	if o.Stats.Rebuilds != rebuilds {
		t.Fatalf("monitor-only policy ran %d rebuilds", o.Stats.Rebuilds-rebuilds)
	}
	if last.CertRatio <= 1 {
		t.Fatalf("12 rounds of unrepaired 0.02-velocity drift should degrade the certified radius, ratio %v", last.CertRatio)
	}
	if o.Stats.LocalRepairs != 0 || o.Stats.FullRebuildFallbacks != 0 {
		t.Fatalf("monitor-only policy recorded repairs: %+v", o.Stats)
	}
	if err := o.Audit(); err != nil {
		t.Fatal(err)
	}
}

// The full policy rebuilds on every sweep; the local policy must match its
// end quality (within the bound) at measurably lower rebuild message cost.
func TestDriftLocalBeatsFullOnMessages(t *testing.T) {
	run := func(policy RepairPolicy) *Overlay {
		o := driftSession(t, 400, 23,
			DriftConfig{ReestimatePeriod: 3, DegradationThreshold: 1.05, Policy: policy},
			coords.DriftConfig{Seed: 23, JumpRate: 0.004, JumpMean: 0.15, InflationPerEpoch: 0.02})
		for round := 0; round < 18; round++ {
			if _, err := o.MaintenanceRound(); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	local, full := run(RepairLocal), run(RepairFull)
	if _, ok := local.CertificateRatio(); !ok {
		t.Fatal("local certificate unarmed after the workload")
	}
	if _, ok := full.CertificateRatio(); !ok {
		t.Fatal("full certificate unarmed after the workload")
	}
	if r, b := local.RealizedRadius(), local.bs.Certificate().Bound; r > b*(1+1e-9) {
		t.Fatalf("local policy ended above the eq. 7 bound: %v > %v", r, b)
	}
	lm := local.Stats.RebuildMessages + local.Stats.DriftMessages
	fm := full.Stats.RebuildMessages + full.Stats.DriftMessages
	if lm >= fm {
		t.Fatalf("local repair cost %d messages, full-rebuild baseline %d — no win", lm, fm)
	}
	if local.Stats.LocalRepairs == 0 {
		t.Fatal("local policy never repaired locally")
	}
}

// The kinetic loop must stay deterministic byte for byte: two runs of the
// same seeded drift-plus-faults chaos produce identical stats, trees, and
// trace timelines.
func TestDriftChaosDeterminism(t *testing.T) {
	type outcome struct {
		stats   SessionStats
		parents []int32
		events  []trace.Event
	}
	run := func() outcome {
		rec := trace.New(1 << 16)
		rec.SetEnabled(true)
		o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 5,
			Drift: DriftConfig{ReestimatePeriod: 2, DegradationThreshold: 1.02, Policy: RepairLocal}})
		if err != nil {
			t.Fatal(err)
		}
		o.Trace(rec)
		r := rng.New(99)
		for i := 0; i < 120; i++ {
			reliableJoin(t, o, r.UniformDisk(1))
		}
		if _, err := o.Rebuild(); err != nil {
			t.Fatal(err)
		}
		m, err := coords.NewDriftModel(coords.DriftConfig{Seed: 99, VelocityMean: 0.01, JumpRate: 0.05, InflationPerEpoch: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetDrift(m); err != nil {
			t.Fatal(err)
		}
		plane, err := faultplane.New(faultplane.Scenario{Seed: 99, LossRate: 0.15, DupRate: 0.05, CrashRate: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 10; round++ {
			if round%3 == 0 {
				o.Join(r.UniformDisk(1))
			}
			if _, err := o.MaintenanceRound(); err != nil {
				t.Fatal(err)
			}
		}
		plane.SetActive(false)
		if _, err := o.Converge(40); err != nil {
			t.Fatalf("converge after drift chaos: %v", err)
		}
		out := outcome{stats: o.Stats, parents: make([]int32, len(o.nodes)), events: rec.Events()}
		for i := range o.nodes {
			out.parents[i] = o.nodes[i].parent
		}
		return out
	}
	a, b := run(), run()
	if a.stats != b.stats {
		t.Fatalf("stats diverged:\n%+v\n%+v", a.stats, b.stats)
	}
	if len(a.parents) != len(b.parents) {
		t.Fatal("node counts diverged")
	}
	for i := range a.parents {
		if a.parents[i] != b.parents[i] {
			t.Fatalf("node %d parent diverged: %d vs %d", i, a.parents[i], b.parents[i])
		}
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("trace event %d diverged:\n%+v\n%+v", i, a.events[i], b.events[i])
		}
	}
	if a.stats.LocalRepairs+a.stats.FullRebuildFallbacks == 0 {
		t.Fatal("chaos workload never exercised a kinetic repair")
	}
}

// The certificate gauge must land in metrics snapshots.
func TestDriftMetricsGauges(t *testing.T) {
	o := driftSession(t, 150, 3,
		DriftConfig{ReestimatePeriod: 1, Policy: RepairLocal},
		coords.DriftConfig{Seed: 3, VelocityMean: 0.02})
	reg := obs.New()
	reg.SetEnabled(true)
	o.Observe(reg)
	for round := 0; round < 6; round++ {
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	ratio, ok := gauges["protocol/certificate_ratio"]
	if !ok || ratio <= 0 || math.IsNaN(ratio) {
		t.Fatalf("certificate_ratio gauge missing or bogus: %v (present %v)", ratio, ok)
	}
	if _, ok := gauges["protocol/drifted_nodes"]; !ok {
		t.Fatal("drifted_nodes gauge missing")
	}
	if counters["protocol/drift_reestimates"] == 0 {
		t.Fatal("drift_reestimates counter missing from snapshot")
	}
}

// FuzzDriftSchedule drives random drift tunings and churn against the
// kinetic loop: it must never panic, and once the network quiets the
// overlay must converge to a clean audit with degrees in bound.
func FuzzDriftSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(12), uint8(2), uint8(1), uint16(100), uint16(50), uint16(10))
	f.Add(uint64(7), uint8(20), uint8(8), uint8(1), uint8(2), uint16(300), uint16(0), uint16(0))
	f.Add(uint64(42), uint8(60), uint8(16), uint8(4), uint8(0), uint16(20), uint16(200), uint16(25))
	f.Fuzz(func(t *testing.T, seed uint64, n8, rounds8, period8, policy8 uint8, velMil, jumpMil, lossMil uint16) {
		n := 10 + int(n8)%50
		rounds := 1 + int(rounds8)%20
		period := 1 + int(period8)%5
		policy := RepairPolicy(int(policy8) % 3)
		vel := float64(velMil%200) / 10000  // up to 0.02 per epoch
		jump := float64(jumpMil%300) / 1000 // up to 0.3 jump rate
		loss := float64(lossMil%300) / 1000 // up to 30% loss
		o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 5,
			Drift: DriftConfig{ReestimatePeriod: period, Policy: policy}})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		for i := 0; i < n; i++ {
			reliableJoin(t, o, r.UniformDisk(1))
		}
		if _, err := o.Rebuild(); err != nil {
			t.Fatal(err)
		}
		m, err := coords.NewDriftModel(coords.DriftConfig{Seed: seed, VelocityMean: vel, JumpRate: jump, InflationPerEpoch: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetDrift(m); err != nil {
			t.Fatal(err)
		}
		var plane *faultplane.Plane
		if loss > 0 {
			plane, err = faultplane.New(faultplane.Scenario{Seed: seed, LossRate: loss, CrashRate: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < rounds; round++ {
			switch round % 3 {
			case 0:
				o.Join(r.UniformDisk(1))
			case 1:
				if id := randomLiveNode(o, r); id > 0 {
					o.Leave(id)
				}
			}
			if _, err := o.MaintenanceRound(); err != nil {
				t.Fatal(err)
			}
		}
		if plane != nil {
			plane.SetActive(false)
		}
		if _, err := o.Converge(60); err != nil {
			t.Fatalf("no convergence after drift schedule: %v", err)
		}
		if got := o.MaxOutDegreeUsed(); got > 5 {
			t.Fatalf("degree bound violated: %d > 5", got)
		}
	})
}
