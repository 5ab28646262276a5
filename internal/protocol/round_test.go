package protocol

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"omtree/internal/coords"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/rng"
)

// roundIdentityLog replays one seeded lossy, drifting, partitioned session
// under the given repair policy and returns one line per maintenance round:
// every MaintenanceStats field, the certificate ratio as IEEE bits, and the
// coverage ratio as IEEE bits. Between rounds it joins and leaves a few
// members through the lossy transport (so refused joins roll back), and
// every fifth round it kills 20 members abruptly.
func roundIdentityLog(t *testing.T, policy RepairPolicy, seed uint64) string {
	t.Helper()
	const members = 3000
	o, err := New(Config{
		Source: geom.Point2{}, Scale: 1, K: SuggestK(members), MaxOutDegree: 6,
		Drift: DriftConfig{ReestimatePeriod: 3, DegradationThreshold: 1.05, Policy: policy},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for i := 0; i < members; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	dm, err := coords.NewDriftModel(coords.DriftConfig{
		Seed: seed, JumpRate: 0.01, JumpMean: 0.15,
		InflationPerEpoch: 0.05, Bound: 0.99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetDrift(dm); err != nil {
		t.Fatal(err)
	}
	plane, err := faultplane.New(faultplane.Scenario{Seed: seed, LossRate: 0.05, CrashRate: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := plane.SetSchedule([]faultplane.PartitionEvent{{Sides: 2, Start: 6, Heal: 12}}); err != nil {
		t.Fatal(err)
	}
	if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	for round := 1; round <= 24; round++ {
		for i := 0; i < 10; i++ {
			o.Join(r.UniformDisk(1)) // lossy joins may be refused and roll back
			if id := randomLiveNode(o, r); id > 0 {
				o.Leave(id)
			}
		}
		if round%5 == 0 {
			for i := 0; i < 20; i++ {
				if id := randomLiveNode(o, r); id > 0 {
					if err := o.FailAbrupt(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		ms, err := o.MaintenanceRound()
		if err != nil {
			t.Fatal(err)
		}
		cert := ms.CertRatio
		ms.CertRatio = 0
		fmt.Fprintf(&b, "%s seed=%d round=%d cert=%#x coverage=%#x %+v\n", policy, seed, round,
			math.Float64bits(cert), math.Float64bits(o.CoverageRatio()), ms)
	}
	return b.String()
}

// TestRoundIdentityGolden pins what every maintenance round reports —
// all MaintenanceStats fields, the certificate ratio and the coverage
// ratio, bit for bit — across the three repair policies, under loss,
// injected crashes, a two-way partition, abrupt failures and drift.
// A change to how the round walks or stores the overlay must leave this
// file untouched; re-run with -update only after an intended protocol
// change.
func TestRoundIdentityGolden(t *testing.T) {
	var b bytes.Buffer
	for _, policy := range []RepairPolicy{RepairNone, RepairLocal, RepairFull} {
		for _, seed := range []uint64{3, 7, 11} {
			b.WriteString(roundIdentityLog(t, policy, seed))
		}
	}
	got := b.Bytes()
	path := filepath.Join("testdata", "round_identity.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("round log drifted from %s at line %d\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("round log drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// reachableAliveOracle and realizedRadiusOracle are the two walks a round
// ran before liveWalk merged them, kept as they were.
func reachableAliveOracle(o *Overlay) int {
	reach := 0
	stack := []int32{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		reach++
		for _, c := range o.nodes[v].children {
			if o.live[c] {
				stack = append(stack, c)
			}
		}
	}
	return reach
}

func realizedRadiusOracle(o *Overlay) float64 {
	type item struct {
		id int32
		d  float64
	}
	var radius float64
	stack := []item{{0, 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sv := 0
		if o.drift != nil {
			sv = o.drift.Staleness(int(it.id))
		}
		for _, c := range o.nodes[it.id].children {
			if !o.live[c] {
				continue
			}
			w := 1.0
			if o.drift != nil {
				s := o.drift.Staleness(int(c))
				if sv > s {
					s = sv
				}
				w = o.drift.Weight(s)
			}
			d := it.d + o.nodes[it.id].pos.Dist(o.nodes[c].pos)*w
			if d > radius {
				radius = d
			}
			stack = append(stack, item{c, d})
		}
	}
	return radius
}

// TestLiveWalkMatchesOracles: the one live-tree walk returns exactly what
// the two walks it replaced returned — the reachable count and the
// staleness-weighted radius, compared with == — on churned overlays with
// dead interior nodes and dark orphans, with and without a drift model.
func TestLiveWalkMatchesOracles(t *testing.T) {
	for _, drifting := range []bool{false, true} {
		o, err := New(Config{
			Source: geom.Point2{}, Scale: 1, K: SuggestK(1500), MaxOutDegree: 5,
			Drift: DriftConfig{ReestimatePeriod: 2, Policy: RepairNone},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(41)
		for i := 0; i < 1500; i++ {
			reliableJoin(t, o, r.UniformDisk(1))
		}
		if _, err := o.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if drifting {
			dm, err := coords.NewDriftModel(coords.DriftConfig{Seed: 41, JumpRate: 0.05, JumpMean: 0.2, InflationPerEpoch: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.SetDrift(dm); err != nil {
				t.Fatal(err)
			}
		}
		plane, err := faultplane.New(faultplane.Scenario{Seed: 41, LossRate: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
			t.Fatal(err)
		}
		sawDark := false
		for step := 0; step < 12; step++ {
			// Kill interior nodes first, so their subtrees hang dark.
			for killed := 0; killed < 10; {
				id := randomLiveNode(o, r)
				if len(o.nodes[id].children) == 0 && killed < 8 {
					continue
				}
				if err := o.FailAbrupt(id); err != nil {
					t.Fatal(err)
				}
				killed++
			}
			reach, radius := o.liveWalk()
			if reach != reachableAliveOracle(o) || radius != realizedRadiusOracle(o) {
				t.Fatalf("drift=%v step %d: walk (%d, %v), oracles (%d, %v)",
					drifting, step, reach, radius, reachableAliveOracle(o), realizedRadiusOracle(o))
			}
			if reachableAliveOracle(o) < o.alive {
				sawDark = true
			}
			if _, err := o.MaintenanceRound(); err != nil {
				t.Fatal(err)
			}
		}
		if !sawDark {
			t.Fatalf("drift=%v: no step left a live member dark; the check is vacuous", drifting)
		}
	}
}

// TestRefusedJoinTruncatesLiveness: the liveness column stays exactly as
// long as the node table through refused joins (every rollback truncates
// both), and its true entries are the live count.
func TestRefusedJoinTruncatesLiveness(t *testing.T) {
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(43)
	for i := 0; i < 200; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	plane, err := faultplane.New(faultplane.Scenario{Seed: 43, LossRate: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
		t.Fatal(err)
	}
	refused := 0
	for i := 0; i < 200; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			refused++
		}
		if len(o.live) != len(o.nodes) {
			t.Fatalf("join %d: liveness column %d entries for %d nodes", i, len(o.live), len(o.nodes))
		}
		if i%20 == 0 {
			if _, err := o.MaintenanceRound(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if refused == 0 {
		t.Fatal("no join was refused at 60% loss; the rollback path went untested")
	}
	live := 0
	for _, l := range o.live {
		if l {
			live++
		}
	}
	if live != o.alive {
		t.Fatalf("%d true liveness entries, live count %d", live, o.alive)
	}
}

// TestRoundLedger: with a registry attached, the top-level round/* spans
// tile protocol/maintenance — one of each per round, summing to its total
// within 5% — and repair rebuilds land in round/kinetic/rebuild under the
// kinetic phase. A disabled registry registers no span, and observing
// changes no round's outcome.
func TestRoundLedger(t *testing.T) {
	session := func(reg *obs.Registry) *Overlay {
		o := driftSession(t, 10000, 47,
			DriftConfig{ReestimatePeriod: 2, DegradationThreshold: 1.02, Policy: RepairLocal},
			coords.DriftConfig{Seed: 47, JumpRate: 0.01, JumpMean: 0.15, InflationPerEpoch: 0.05, Bound: 0.99})
		plane, err := faultplane.New(faultplane.Scenario{Seed: 47, LossRate: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
			t.Fatal(err)
		}
		o.Observe(reg)
		return o
	}
	const rounds = 6
	reg := obs.New()
	observed, plain := session(reg), session(nil)
	for round := 0; round < rounds; round++ {
		a, err := observed.MaintenanceRound()
		if err != nil {
			t.Fatal(err)
		}
		b, err := plain.MaintenanceRound()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("round %d: observed %+v, unobserved %+v", round, a, b)
		}
	}

	snap := reg.Snapshot()
	total, ok := snap.Span("protocol/maintenance")
	if !ok || total.Count != rounds {
		t.Fatalf("protocol/maintenance span %+v, want %d rounds", total, rounds)
	}
	var sum float64
	for _, name := range []string{"detector", "partition", "elect", "kinetic", "walk", "flight", "snapshot"} {
		sp, ok := snap.Span("round/" + name)
		if !ok || sp.Count != rounds {
			t.Fatalf("round/%s span %+v, want one per round", name, sp)
		}
		sum += sp.TotalSec
	}
	if math.Abs(sum-total.TotalSec) > 0.05*total.TotalSec {
		t.Fatalf("round/* spans sum to %vs, protocol/maintenance is %vs", sum, total.TotalSec)
	}
	rebuild, ok := snap.Span("round/kinetic/rebuild")
	kinetic, _ := snap.Span("round/kinetic")
	if !ok || rebuild.Count == 0 || rebuild.TotalSec > kinetic.TotalSec {
		t.Fatalf("round/kinetic/rebuild %+v under round/kinetic %+v", rebuild, kinetic)
	}

	off := obs.New()
	off.SetEnabled(false)
	quiet := session(off)
	if _, err := quiet.MaintenanceRound(); err != nil {
		t.Fatal(err)
	}
	if spans := off.Snapshot().Spans; len(spans) != 0 {
		t.Fatalf("a disabled registry registered spans %+v", spans)
	}
}
