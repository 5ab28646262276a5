package protocol

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"omtree/internal/core"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/obs/trace"
	"omtree/internal/rng"
)

// settlePartitionDamage converges the overlay post-heal and then runs the
// eager detector sweep until every ghost is resolved, returning the rounds
// used. Fails the test if the bound is exhausted first.
func settlePartitionDamage(t *testing.T, o *Overlay, bound int) int {
	t.Helper()
	rounds, err := o.Converge(bound)
	if err != nil {
		t.Fatalf("not converged after %d rounds: %v", rounds, err)
	}
	for extra := 0; o.Ghosts() > 0; extra++ {
		if extra >= bound {
			t.Fatalf("%d ghosts still wired after %d detector sweeps", o.Ghosts(), extra)
		}
		if _, err := o.DetectAndRepair(); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	return rounds
}

// partitionOutcome captures everything two identically-seeded partition
// runs must agree on, trace export included.
type partitionOutcome struct {
	parents   []int32
	alive     []bool
	stats     SessionStats
	plane     faultplane.Stats
	timeline  string
	islands   int // peak islands observed while split
	degraded  int
	radius    float64
	rebuilt   float64
	eq7Bound  float64
	ghostsEnd int
}

// runPartitionChaos drives a seeded session through a scheduled
// split/heal cycle with joins landing mid-partition, then settles and
// audits. The schedule and every draw are seeded, so two calls must agree
// byte for byte.
func runPartitionChaos(t *testing.T, seed uint64, sides int) partitionOutcome {
	t.Helper()
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(1 << 15)
	rec.SetEnabled(true)
	o.Trace(rec)
	r := rng.New(seed ^ 0xbeefcafe)
	for i := 0; i < 40; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	plane, err := faultplane.New(faultplane.Scenario{Seed: seed, LossRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFaultConfig()
	if err := o.SetTransport(plane, cfg); err != nil {
		t.Fatal(err)
	}
	const healTick = 9
	if err := plane.SetSchedule([]faultplane.PartitionEvent{
		{Sides: sides, Start: 2, Heal: healTick},
	}); err != nil {
		t.Fatal(err)
	}

	var out partitionOutcome
	for round := 1; round <= healTick+1; round++ {
		ms, err := o.MaintenanceRound()
		if err != nil {
			t.Fatal(err)
		}
		if ms.Islands > out.islands {
			out.islands = ms.Islands
		}
		// The degraded-forest invariants must hold after every round, split
		// or not.
		if err := o.AuditDegraded(); err != nil {
			t.Fatalf("round %d: degraded audit failed: %v", round, err)
		}
		// Join pressure lands mid-partition; some of it is served degraded.
		if round >= 4 && round < healTick {
			for i := 0; i < 3; i++ {
				if _, st, err := o.Join(r.UniformDisk(1)); err == nil && st.Degraded {
					out.degraded++
				}
			}
		}
	}
	if out.degraded != o.Stats.DegradedJoins {
		t.Fatalf("observed %d degraded joins, stats say %d", out.degraded, o.Stats.DegradedJoins)
	}

	plane.SetActive(false)
	settlePartitionDamage(t, o, cfg.ConfirmAfter+16)
	out.ghostsEnd = o.Ghosts()

	// Post-heal acceptance: full audit, and the membership's eq. 7 bound
	// holds for the session's periodic rebuild.
	if err := o.Audit(); err != nil {
		t.Fatalf("post-heal audit: %v", err)
	}
	rad, err := o.Radius()
	if err != nil {
		t.Fatal(err)
	}
	out.radius = rad
	_, pts, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Build2(geom.Point2{}, pts[1:], core.WithMaxOutDegree(5))
	if err != nil {
		t.Fatal(err)
	}
	out.eq7Bound = res.Bound
	if res.Radius > res.Bound*(1+1e-9) {
		t.Fatalf("eq. 7 violated on the post-heal membership: radius %v > bound %v", res.Radius, res.Bound)
	}
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := o.Radius()
	if err != nil {
		t.Fatal(err)
	}
	out.rebuilt = rebuilt
	if rebuilt > res.Bound*(1+1e-9) {
		t.Fatalf("rebuilt radius %v > eq. 7 bound %v", rebuilt, res.Bound)
	}

	out.parents = make([]int32, len(o.nodes))
	out.alive = make([]bool, len(o.nodes))
	for i := range o.nodes {
		out.parents[i] = o.nodes[i].parent
		out.alive[i] = o.live[i]
	}
	out.stats = o.Stats
	out.plane = plane.Stats
	out.timeline = rec.Text()
	return out
}

// TestPartitionChaosDeterminism is the acceptance property: same seed +
// same partition schedule => byte-identical post-heal tree, stats, and
// trace export, with a clean audit, the eq. 7 bound honored, and zero
// ghost members.
func TestPartitionChaosDeterminism(t *testing.T) {
	for _, sides := range []int{2, 3} {
		for seed := uint64(1); seed <= 2; seed++ {
			a := runPartitionChaos(t, seed, sides)
			if a.plane.PartitionDrops == 0 {
				t.Fatalf("seed %d sides %d: partition never dropped anything", seed, sides)
			}
			if a.islands == 0 {
				t.Fatalf("seed %d sides %d: no island ever formed", seed, sides)
			}
			if a.ghostsEnd != 0 {
				t.Fatalf("seed %d sides %d: %d ghosts after settling", seed, sides, a.ghostsEnd)
			}
			b := runPartitionChaos(t, seed, sides)
			if a.stats != b.stats || a.plane != b.plane {
				t.Fatalf("seed %d sides %d: stats diverged:\n%+v\n%+v", seed, sides, a.stats, b.stats)
			}
			if !bytes.Equal([]byte(a.timeline), []byte(b.timeline)) {
				t.Fatalf("seed %d sides %d: trace export diverged", seed, sides)
			}
			if len(a.parents) != len(b.parents) {
				t.Fatalf("seed %d sides %d: node counts diverged", seed, sides)
			}
			for i := range a.parents {
				if a.parents[i] != b.parents[i] || a.alive[i] != b.alive[i] {
					t.Fatalf("seed %d sides %d: node %d diverged", seed, sides, i)
				}
			}
			if a.radius != b.radius || a.rebuilt != b.rebuilt {
				t.Fatalf("seed %d sides %d: radii diverged", seed, sides)
			}
		}
	}
}

// TestPartitionDegradedMode pins the split-phase behavior: islands form,
// serve joins flagged Degraded within the radius bound, the strict audit
// reports the disconnection while the degraded audit passes, and Islands()
// agrees with the round stats.
func TestPartitionDegradedMode(t *testing.T) {
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4242)
	for i := 0; i < 40; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	plane, err := faultplane.New(faultplane.Scenario{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFaultConfig()
	if err := o.SetTransport(plane, cfg); err != nil {
		t.Fatal(err)
	}
	plane.Partition(2)
	aliveBefore := o.N()
	for round := 0; round < cfg.ConfirmAfter+2; round++ {
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
		if err := o.AuditDegraded(); err != nil {
			t.Fatalf("round %d: degraded audit: %v", round, err)
		}
	}
	if o.N() != aliveBefore {
		t.Fatalf("membership changed under a pure partition: %d -> %d", aliveBefore, o.N())
	}
	if o.Islands() == 0 {
		t.Fatal("no islands after the detector window elapsed")
	}
	if err := o.Audit(); err == nil {
		t.Fatal("strict audit passed while the overlay is split")
	}

	// Joins that hash to the cut side are served degraded, within the
	// degraded radius bound relative to their island.
	degraded := 0
	for i := 0; i < 30; i++ {
		id, st, err := o.Join(r.UniformDisk(1))
		if err != nil || !st.Degraded {
			continue
		}
		degraded++
		if d := o.nodes[id].delay; d > o.degradedRadius()+1e-9 {
			t.Fatalf("degraded join %d landed at island delay %v > bound %v", id, d, o.degradedRadius())
		}
	}
	if degraded == 0 {
		t.Fatal("no join was served degraded under a 2-way split")
	}
	if o.Stats.DegradedJoins != degraded {
		t.Fatalf("DegradedJoins = %d, observed %d", o.Stats.DegradedJoins, degraded)
	}

	// Heal: reconciliation re-grafts every island and the strict audit
	// comes back within the detector window.
	plane.Heal()
	plane.SetActive(false)
	settlePartitionDamage(t, o, cfg.ConfirmAfter+16)
	if o.Islands() != 0 {
		t.Fatalf("%d islands survived reconciliation", o.Islands())
	}
	if o.Stats.Reconciliations == 0 {
		t.Fatal("no reconciliation recorded")
	}
	if cr := o.CoverageRatio(); cr != 1 {
		t.Fatalf("coverage %v after reconciliation", cr)
	}
}

// TestAdmissionControl pins the token-bucket semantics: Burst joins pass,
// the next QueueLimit joins queue, further joins shed with a
// deterministic retry-after hint, and maintenance rounds drain the queue
// in arrival order at RatePerRound.
func TestAdmissionControl(t *testing.T) {
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	for i := 0; i < 5; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	adm := Admission{RatePerRound: 2, Burst: 3, QueueLimit: 4}
	if err := o.SetAdmission(adm); err != nil {
		t.Fatal(err)
	}

	joined, queued, shed := 0, 0, 0
	var lastHint int
	for i := 0; i < 10; i++ {
		_, _, err := o.Join(r.UniformDisk(1))
		switch {
		case err == nil:
			joined++
		case errors.Is(err, ErrJoinQueued):
			queued++
		default:
			var ra *RetryAfter
			if !errors.As(err, &ra) {
				t.Fatalf("join %d: unexpected error %v", i, err)
			}
			shed++
			lastHint = ra.Rounds
		}
	}
	if joined != 3 || queued != 4 || shed != 3 {
		t.Fatalf("joined/queued/shed = %d/%d/%d, want 3/4/3", joined, queued, shed)
	}
	if o.PendingJoins() != 4 {
		t.Fatalf("PendingJoins = %d, want 4", o.PendingJoins())
	}
	// Hint: 4 queued + 1 ahead of us at 2 tokens/round => 3 rounds.
	if lastHint != 3 {
		t.Fatalf("retry-after hint = %d, want 3", lastHint)
	}
	if o.Stats.JoinsQueued != 4 || o.Stats.JoinsShed != 3 {
		t.Fatalf("stats JoinsQueued/JoinsShed = %d/%d", o.Stats.JoinsQueued, o.Stats.JoinsShed)
	}

	// Two rounds drain 2 joins each; a third admits none (queue empty, and
	// direct joins get the banked tokens instead).
	n := o.N()
	ms, err := o.MaintenanceRound()
	if err != nil {
		t.Fatal(err)
	}
	if ms.AdmittedJoins != 2 || ms.PendingJoins != 2 {
		t.Fatalf("round 1: admitted %d pending %d, want 2/2", ms.AdmittedJoins, ms.PendingJoins)
	}
	ms, err = o.MaintenanceRound()
	if err != nil {
		t.Fatal(err)
	}
	if ms.AdmittedJoins != 2 || ms.PendingJoins != 0 {
		t.Fatalf("round 2: admitted %d pending %d, want 2/0", ms.AdmittedJoins, ms.PendingJoins)
	}
	if o.N() != n+4 {
		t.Fatalf("drained membership %d, want %d", o.N(), n+4)
	}
	if o.Stats.QueuedAdmitted != 4 {
		t.Fatalf("QueuedAdmitted = %d, want 4", o.Stats.QueuedAdmitted)
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("audit after drain: %v", err)
	}
	// A further round refills tokens with nothing queued; direct joins are
	// admitted again.
	ms, err = o.MaintenanceRound()
	if err != nil {
		t.Fatal(err)
	}
	if ms.AdmittedJoins != 0 || ms.PendingJoins != 0 {
		t.Fatalf("idle round admitted %d pending %d, want 0/0", ms.AdmittedJoins, ms.PendingJoins)
	}
	if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
		t.Fatalf("join after refill: %v", err)
	}
	// Disabling admission stops the throttling entirely.
	if err := o.SetAdmission(Admission{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			t.Fatalf("unthrottled join failed: %v", err)
		}
	}
}

func TestAdmissionValidation(t *testing.T) {
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	bad := []Admission{
		{RatePerRound: -1},
		{RatePerRound: math.NaN()},
		{RatePerRound: math.Inf(1)},
		{RatePerRound: 1, Burst: -2},
		{RatePerRound: 1, QueueLimit: -1},
	}
	for _, a := range bad {
		if err := o.SetAdmission(a); err == nil {
			t.Errorf("accepted invalid admission %+v", a)
		}
	}
	// Defaults: Burst = ceil(rate), QueueLimit = 4*Burst.
	if err := o.SetAdmission(Admission{RatePerRound: 2.5}); err != nil {
		t.Fatal(err)
	}
	if o.adm.Burst != 3 || o.adm.QueueLimit != 12 {
		t.Fatalf("normalized to Burst=%d QueueLimit=%d, want 3/12", o.adm.Burst, o.adm.QueueLimit)
	}
}

// TestConfigValidate is the satellite table test: every malformed field
// must come back as a descriptive error from New.
func TestConfigValidate(t *testing.T) {
	valid := sessionConfig(3)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero scale", func(c *Config) { c.Scale = 0 }},
		{"negative scale", func(c *Config) { c.Scale = -2 }},
		{"NaN scale", func(c *Config) { c.Scale = math.NaN() }},
		{"infinite scale", func(c *Config) { c.Scale = math.Inf(1) }},
		{"scale past the float range", func(c *Config) { c.Scale = 1e160 }},
		{"scale below the float range", func(c *Config) { c.Scale = 1e-160 }},
		{"zero K", func(c *Config) { c.K = 0 }},
		{"negative K", func(c *Config) { c.K = -3 }},
		{"huge K", func(c *Config) { c.K = 40 }},
		{"degree too small", func(c *Config) { c.MaxOutDegree = 2 }},
		{"NaN source", func(c *Config) { c.Source.X = math.NaN() }},
		{"infinite source", func(c *Config) { c.Source.Y = math.Inf(-1) }},
		{"faults without transport", func(c *Config) { c.Faults = DefaultFaultConfig() }},
		{"bad faults with transport", func(c *Config) {
			c.Transport, _ = faultplane.New(faultplane.Scenario{})
			c.Faults = FaultConfig{Retry: RetryPolicy{MaxAttempts: 0, Backoff: 1}, SuspectAfter: 1, ConfirmAfter: 1}
		}},
		{"bad degraded radius", func(c *Config) {
			c.Transport, _ = faultplane.New(faultplane.Scenario{})
			c.Faults = DefaultFaultConfig()
			c.Faults.DegradedRadius = math.Inf(1)
		}},
		{"bad admission", func(c *Config) { c.Admission = Admission{RatePerRound: -5} }},
		{"drift policy without period", func(c *Config) {
			c.Drift = DriftConfig{Policy: RepairLocal}
		}},
		{"negative drift threshold", func(c *Config) {
			c.Drift = DriftConfig{ReestimatePeriod: 3, DegradationThreshold: -1.1}
		}},
		{"NaN drift threshold", func(c *Config) {
			c.Drift = DriftConfig{ReestimatePeriod: 3, DegradationThreshold: math.NaN()}
		}},
		{"drift cutoff above one", func(c *Config) {
			c.Drift = DriftConfig{ReestimatePeriod: 3, FullRebuildCutoff: 1.5}
		}},
		{"negative drift cutoff", func(c *Config) {
			c.Drift = DriftConfig{ReestimatePeriod: 3, FullRebuildCutoff: -0.1}
		}},
		{"unknown drift policy", func(c *Config) {
			c.Drift = DriftConfig{ReestimatePeriod: 3, Policy: RepairPolicy(9)}
		}},
	}
	for _, tc := range cases {
		cfg := valid
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, cfg)
		}
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	driftCfg := valid
	driftCfg.Drift = DriftConfig{
		ReestimatePeriod: 3, DegradationThreshold: 1.1,
		FullRebuildCutoff: 0.5, Policy: RepairFull,
	}
	if err := driftCfg.Validate(); err != nil {
		t.Fatalf("valid drift config rejected: %v", err)
	}

	// The convenience fields wire the transport and admission through New.
	plane, err := faultplane.New(faultplane.Scenario{Seed: 3, LossRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := valid
	cfg.Transport = plane
	cfg.Faults = DefaultFaultConfig()
	cfg.Admission = Admission{RatePerRound: 100}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.transport != Transport(plane) || !o.adm.Enabled() {
		t.Fatal("New did not wire Config.Transport / Config.Admission")
	}
	if _, _, err := o.Join(geom.Point2{X: 0.3, Y: 0.1}); err != nil {
		t.Fatalf("join through configured transport: %v", err)
	}
	if o.Stats.Attempts == 0 {
		t.Fatal("configured transport saw no attempts")
	}
}

// crashOnContact crashes a designated victim the first time a designated
// caller contacts it — aimed mid-adoption, so the repair's new anchor dies
// during the in-flight handshake.
type crashOnContact struct {
	from, victim int32
	armed        bool
	fired        bool
}

func (c *crashOnContact) Attempt(from, to int32) faultplane.Outcome {
	if c.armed && !c.fired && from == c.from && to == c.victim {
		c.fired = true
		return faultplane.Outcome{CrashDest: true}
	}
	return faultplane.Outcome{}
}

func (c *crashOnContact) Jitter() float64 { return 0 }

// TestCrashDuringAdoption is the satellite detector edge case: a parent
// dies, and while its orphan is mid-adoption the adoption target crashes
// too. The wired state must stay symmetric after every round (no orphaned
// ghost leaves), and the overlay must still converge with zero ghosts.
func TestCrashDuringAdoption(t *testing.T) {
	o, err := New(sessionConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	for i := 0; i < 25; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	// Find a grandparent chain: anchor -> parent -> orphan, all live.
	var anchor, parent, orphan int32 = -1, -1, -1
	for id := 1; id < len(o.nodes) && orphan < 0; id++ {
		p := o.nodes[id].parent
		if p <= 0 {
			continue
		}
		if gp := o.nodes[p].parent; gp > 0 {
			anchor, parent, orphan = gp, p, int32(id)
		}
	}
	if orphan < 0 {
		t.Skip("no depth-3 chain in this layout")
	}
	tr := &crashOnContact{from: orphan, victim: anchor}
	cfg := DefaultFaultConfig()
	cfg.SuspectAfter, cfg.ConfirmAfter = 1, 2
	if err := o.SetTransport(tr, cfg); err != nil {
		t.Fatal(err)
	}
	if err := o.FailAbrupt(int(parent)); err != nil {
		t.Fatal(err)
	}
	tr.armed = true

	checkSym := func(round int) {
		t.Helper()
		if err := o.AuditDegraded(); err != nil {
			t.Fatalf("round %d: symmetry/forest broken: %v", round, err)
		}
	}
	checkSym(0)
	for round := 1; round <= 2*cfg.ConfirmAfter+6; round++ {
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
		checkSym(round)
	}
	if !tr.fired {
		t.Fatal("the adoption handshake never hit the victim")
	}
	if o.live[anchor] {
		t.Fatal("victim survived its scripted crash")
	}
	rounds, err := o.Converge(2*cfg.ConfirmAfter + 8)
	if err != nil {
		t.Fatalf("not converged after %d rounds: %v", rounds, err)
	}
	for o.Ghosts() > 0 {
		if _, err := o.DetectAndRepair(); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("final audit: %v", err)
	}
}

// FuzzPartitionSchedule drives arbitrary churn against arbitrary (valid)
// partition schedules: the degraded-forest invariants must hold after
// every round, and once the schedule heals and injection stops the
// overlay must converge to a clean audit with zero ghosts.
func FuzzPartitionSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(2), uint8(5), []byte{0, 3, 1, 3, 0, 3, 3, 2, 3, 3})
	f.Add(uint64(7), uint8(3), uint8(1), uint8(8), []byte("partition-churn"))
	f.Add(uint64(42), uint8(4), uint8(3), uint8(2), []byte{3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed uint64, sides8, start8, dur8 uint8, sched []byte) {
		if len(sched) > 120 {
			sched = sched[:120]
		}
		sides := 2 + int(sides8%3)
		start := 1 + int(start8%5)
		heal := start + 1 + int(dur8%8)
		o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 4})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		for i := 0; i < 12; i++ {
			reliableJoin(t, o, r.UniformDisk(1))
		}
		plane, err := faultplane.New(faultplane.Scenario{
			Seed: seed, LossRate: 0.1, DupRate: 0.05, CrashRate: 0.01,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultFaultConfig()
		if err := o.SetTransport(plane, cfg); err != nil {
			t.Fatal(err)
		}
		if err := plane.SetSchedule([]faultplane.PartitionEvent{
			{Sides: sides, Start: start, Heal: heal},
		}); err != nil {
			t.Fatal(err)
		}
		if err := o.SetAdmission(Admission{RatePerRound: 4}); err != nil {
			t.Fatal(err)
		}
		for _, b := range sched {
			switch b % 4 {
			case 0:
				o.Join(r.UniformDisk(1)) // may queue, shed, degrade, or fail
			case 1:
				if id := randomLiveNode(o, r); id > 0 {
					o.Leave(id)
				}
			case 2:
				if id := randomLiveNode(o, r); id > 0 {
					o.FailAbrupt(id)
				}
			case 3:
				if _, err := o.MaintenanceRound(); err != nil {
					t.Fatal(err)
				}
				if err := o.AuditDegraded(); err != nil {
					t.Fatalf("degraded audit mid-schedule: %v", err)
				}
			}
		}
		// Run the schedule past its heal point, stop injection, settle.
		for plane.Ticks() < heal {
			if _, err := o.MaintenanceRound(); err != nil {
				t.Fatal(err)
			}
		}
		plane.SetActive(false)
		bound := cfg.ConfirmAfter + 16
		rounds, err := o.Converge(bound)
		if err != nil {
			t.Fatalf("not converged after %d rounds: %v", rounds, err)
		}
		for extra := 0; o.Ghosts() > 0; extra++ {
			if extra >= bound {
				t.Fatalf("%d ghosts left after %d sweeps", o.Ghosts(), extra)
			}
			if _, err := o.DetectAndRepair(); err != nil {
				t.Fatal(err)
			}
		}
		if cr := o.CoverageRatio(); cr != 1 {
			t.Fatalf("coverage %v after convergence", cr)
		}
	})
}

// TestGoldenPartitionTimeline locks down the trace timeline of a seeded
// partition -> degrade -> heal -> reconcile run byte for byte. Re-run with
// -update to regenerate after an intended format or protocol change.
func TestGoldenPartitionTimeline(t *testing.T) {
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(4096)
	rec.SetEnabled(true)
	o.Trace(rec)
	r := rng.New(20240805)
	for i := 0; i < 10; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	plane, err := faultplane.New(faultplane.Scenario{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFaultConfig()
	cfg.SuspectAfter, cfg.ConfirmAfter = 1, 2
	if err := o.SetTransport(plane, cfg); err != nil {
		t.Fatal(err)
	}
	if err := plane.SetSchedule([]faultplane.PartitionEvent{
		{Sides: 2, Start: 1, Heal: 5},
	}); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 6; round++ {
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	got := rec.Text()

	// The causal chain a partition run must expose, pinned in order.
	pinned := []string{
		"protocol/partition",
		"protocol/degrade",
		"protocol/elect_coordinator",
		"protocol/heal",
		"protocol/reconcile.begin",
		"protocol/regraft",
		"protocol/reconcile.end",
	}
	rest := got
	for _, want := range pinned {
		i := indexOf(rest, want)
		if i < 0 {
			t.Fatalf("timeline missing %q (or out of order)\n%s", want, got)
		}
		rest = rest[i+len(want):]
	}

	path := filepath.Join("testdata", "partition_timeline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("timeline drifted from %s (re-run with -update if intended)\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// indexOf is strings.Index without dragging the import into every helper.
func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
