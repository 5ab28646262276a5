package protocol

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"omtree/internal/coords"
	"omtree/internal/core"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/rng"
	"omtree/internal/snapshot"
)

func TestSnapshotConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   SnapshotConfig
		ok   bool
	}{
		{"zero value disabled", SnapshotConfig{}, true},
		{"scheduled", SnapshotConfig{Interval: 5, Path: "s.omts"}, true},
		{"with rotation", SnapshotConfig{Interval: 1, Path: "s.omts", KeepLast: 3}, true},
		{"path without interval", SnapshotConfig{Path: "s.omts"}, false},
		{"negative interval", SnapshotConfig{Interval: -1, Path: "s.omts"}, false},
		{"interval without path", SnapshotConfig{Interval: 5}, false},
		{"negative keep", SnapshotConfig{Interval: 5, Path: "s.omts", KeepLast: -1}, false},
		{"rotation without schedule", SnapshotConfig{KeepLast: 2}, false},
	}
	for _, tc := range cases {
		cfg := sessionConfig(3)
		cfg.Snapshot = tc.sc
		_, err := New(cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.sc)
		}
	}
}

// snapshotSession builds a session with enough churn to populate every
// serialized structure: ghosts, a rebuild, drift trajectories, a queued
// admission backlog, and non-default fault tuning.
func snapshotSession(t *testing.T, seed uint64) *Overlay {
	t.Helper()
	cfg := sessionConfig(3)
	cfg.Drift = DriftConfig{
		ReestimatePeriod:     4,
		DegradationThreshold: 1.3,
		FullRebuildCutoff:    0.5,
		Policy:               RepairLocal,
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for i := 0; i < 60; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	m, err := coords.NewDriftModel(coords.DriftConfig{Seed: seed, VelocityMean: 0.005, InflationPerEpoch: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetDrift(m); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Leave(5); err != nil {
		t.Fatal(err)
	}
	if err := o.FailAbrupt(9); err != nil {
		t.Fatal(err)
	}
	// A few maintenance rounds advance the round clock, drive drift
	// re-estimation, and repair the crash.
	for i := 0; i < 6; i++ {
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	// Throttle late, then queue joins past the burst so the bucket and
	// pending queue survive in the snapshot.
	if err := o.SetAdmission(Admission{RatePerRound: 2, Burst: 3, QueueLimit: 8}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		o.Join(r.UniformDisk(1))
	}
	if o.PendingJoins() == 0 {
		t.Fatal("admission queue unexpectedly empty")
	}
	return o
}

// reencode re-serializes a restored session for byte-identity checks,
// compensating for the Restores bump Restore books on the way out.
func reencode(o *Overlay) []byte {
	o.Stats.Restores--
	var e snapshot.Encoder
	o.encodeTo(&e, nil)
	o.Stats.Restores++
	return snapshot.Seal(snapshot.KindOverlay, e.Bytes())
}

func TestSnapshotRoundTrip(t *testing.T) {
	o := snapshotSession(t, 11)
	var buf bytes.Buffer
	if err := o.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if o.Stats.SnapshotWrites != 1 {
		t.Errorf("SnapshotWrites = %d", o.Stats.SnapshotWrites)
	}
	blob := append([]byte(nil), buf.Bytes()...)

	o2, err := Restore(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if o2.Stats.Restores != 1 {
		t.Errorf("Restores = %d", o2.Stats.Restores)
	}
	// Deterministic: the restored session re-encodes to the same bytes.
	if !bytes.Equal(reencode(o2), blob) {
		t.Fatal("restore does not re-encode byte-identical")
	}
	// Same observable state.
	if o2.N() != o.N() || len(o2.nodes) != len(o.nodes) {
		t.Fatalf("membership differs: %d/%d vs %d/%d", o2.N(), len(o2.nodes), o.N(), len(o.nodes))
	}
	r1, err1 := o.Radius()
	r2, err2 := o2.Radius()
	if err1 != nil || err2 != nil || r1 != r2 {
		t.Fatalf("radius differs: %v (%v) vs %v (%v)", r1, err1, r2, err2)
	}
	if o2.Certificate() != o.Certificate() {
		t.Fatal("certificate differs after restore")
	}
	if o2.PendingJoins() != o.PendingJoins() {
		t.Fatalf("pending queue %d vs %d", o2.PendingJoins(), o.PendingJoins())
	}
	if err := o2.Audit(); err != nil {
		t.Fatalf("restored audit: %v", err)
	}

	// The round clock resumes exactly where the snapshot left it.
	before := o2.Stats.MaintenanceRounds
	if before != o.Stats.MaintenanceRounds {
		t.Fatalf("round clock %d vs %d", before, o.Stats.MaintenanceRounds)
	}
	if _, err := o2.MaintenanceRound(); err != nil {
		t.Fatal(err)
	}
	if o2.Stats.MaintenanceRounds != before+1 {
		t.Fatalf("resumed at round %d, want %d", o2.Stats.MaintenanceRounds, before+1)
	}
	// Both sessions keep evolving identically from the common state.
	if _, err := o.MaintenanceRound(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	p := r.UniformDisk(1)
	id1, _, e1 := o.Join(p)
	id2, _, e2 := o2.Join(p)
	if id1 != id2 || (e1 == nil) != (e2 == nil) {
		t.Fatalf("diverged after restore: join (%d,%v) vs (%d,%v)", id1, e1, id2, e2)
	}
}

func TestRestoreRejectsCorruptAndTorn(t *testing.T) {
	o := snapshotSession(t, 13)
	var buf bytes.Buffer
	if err := o.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	if _, err := Restore(bytes.NewReader(nil)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("empty input: %v", err)
	}
	torn := blob[:len(blob)/2]
	if _, err := Restore(bytes.NewReader(torn)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("torn input: %v", err)
	}
	for _, off := range []int{0, 5, 20, len(blob) / 2, len(blob) - 9} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		if _, err := Restore(bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("flip at %d: %v", off, err)
		}
	}
	// Wrong kind: a group-set envelope is not an overlay.
	gs, err := NewGroupSet(nil, FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Create("a", groupCfg()); err != nil {
		t.Fatal(err)
	}
	var gbuf bytes.Buffer
	if err := gs.WriteSnapshot(&gbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(&gbuf); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("group-set envelope accepted as overlay: %v", err)
	}
}

// TestKillPointRecoveryDifferential crashes the coordinator at every
// instrumented kill point, restores from the last good snapshot, and
// requires the survivor to converge to a clean audit with the eq. 7
// bound intact — the recovery differential the issue demands.
func TestKillPointRecoveryDifferential(t *testing.T) {
	points := []struct {
		name    string
		trigger func(t *testing.T, o *Overlay) error
	}{
		{"snapshot/encode", func(t *testing.T, o *Overlay) error {
			return o.WriteSnapshot(&bytes.Buffer{})
		}},
		{"snapshot/write", func(t *testing.T, o *Overlay) error {
			return o.WriteSnapshot(&bytes.Buffer{})
		}},
		{"rebuild/rewire", func(t *testing.T, o *Overlay) error {
			_, err := o.Rebuild()
			return err
		}},
		{"reconcile", func(t *testing.T, o *Overlay) error {
			// A split that heals forces an island merge; reconciliation
			// crosses the kill point while the graft is half-reconciled.
			plane, err := faultplane.New(faultplane.Scenario{Seed: 7, LossRate: 0})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
				t.Fatal(err)
			}
			if err := plane.SetSchedule([]faultplane.PartitionEvent{{Sides: 2, Start: 2, Heal: 10}}); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 24; round++ {
				if _, err := o.MaintenanceRound(); err != nil {
					return err
				}
			}
			t.Fatal("partition healed without crossing the reconcile point")
			return nil
		}},
	}
	for _, kp := range points {
		t.Run(kp.name, func(t *testing.T) {
			o := snapshotSession(t, 17)
			// Last good checkpoint, taken before the crash.
			var good bytes.Buffer
			if err := o.WriteSnapshot(&good); err != nil {
				t.Fatal(err)
			}
			plan, err := faultplane.NewKillPlan(faultplane.KillEvent{Point: kp.name, Hit: 1})
			if err != nil {
				t.Fatal(err)
			}
			o.SetKillPlan(plan)
			err = kp.trigger(t, o)
			var killed *faultplane.KilledError
			if !errors.As(err, &killed) || killed.Point != kp.name {
				t.Fatalf("expected a kill at %q, got %v", kp.name, err)
			}
			if !plan.Fired() {
				t.Fatal("plan did not record the kill")
			}

			// The coordinator restarts from its last snapshot and must
			// converge back to a clean, bounded tree.
			o2, err := Restore(bytes.NewReader(good.Bytes()))
			if err != nil {
				t.Fatalf("restore after %q: %v", kp.name, err)
			}
			if _, err := o2.Converge(16); err != nil {
				t.Fatalf("converge after %q: %v", kp.name, err)
			}
			if err := o2.Audit(); err != nil {
				t.Fatalf("audit after %q: %v", kp.name, err)
			}
			_, pts, _, err := o2.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Build2(o2.cfg.Source, pts[1:], core.WithMaxOutDegree(o2.cfg.MaxOutDegree))
			if err != nil {
				t.Fatal(err)
			}
			if res.Radius > res.Bound*(1+1e-9) {
				t.Fatalf("eq. 7 violated after %q recovery: radius %v > bound %v", kp.name, res.Radius, res.Bound)
			}
		})
	}
}

// TestTornFileDegradesToColdRebuild kills the writer mid-write, leaving a
// torn file on disk. The restart path must detect it by checksum and fall
// back to a cold rebuild from member reports — never panic.
func TestTornFileDegradesToColdRebuild(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "overlay.omts")
	o := snapshotSession(t, 19)
	if err := o.SnapshotToFile(path, 2); err != nil {
		t.Fatal(err)
	}
	// Second write crashes between the two halves: the rotation has
	// happened, and the fresh file is torn.
	plan, err := faultplane.NewKillPlan(faultplane.KillEvent{Point: "snapshot/write", Hit: 1})
	if err != nil {
		t.Fatal(err)
	}
	o.SetKillPlan(plan)
	err = o.SnapshotToFile(path, 2)
	var killed *faultplane.KilledError
	if !errors.As(err, &killed) {
		t.Fatalf("expected a kill, got %v", err)
	}
	if _, err := RestoreFile(path); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("torn file not detected: %v", err)
	}
	// The previous checkpoint rotated to .1 and still restores.
	if o2, err := RestoreFile(path + ".1"); err != nil {
		t.Fatalf("rotated checkpoint unusable: %v", err)
	} else if err := o2.Audit(); err != nil {
		t.Fatal(err)
	}
	// Cold-rebuild fallback: reconstruct from the live membership report.
	_, pts, _, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Build2(o.cfg.Source, pts[1:], core.WithMaxOutDegree(o.cfg.MaxOutDegree)); err != nil {
		t.Fatalf("cold rebuild fallback: %v", err)
	}
}

func TestAutoSnapshotSchedule(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "auto.omts")
	cfg := sessionConfig(3)
	cfg.Snapshot = SnapshotConfig{Interval: 3, Path: path, KeepLast: 2}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	for i := 0; i < 20; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	for i := 0; i < 7; i++ {
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	// Rounds 3 and 6 snapshot; round 6's write rotated round 3's to .1.
	if o.Stats.SnapshotWrites != 2 {
		t.Fatalf("SnapshotWrites = %d, want 2", o.Stats.SnapshotWrites)
	}
	o2, err := RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Stats.MaintenanceRounds != 6 {
		t.Fatalf("latest checkpoint at round %d, want 6", o2.Stats.MaintenanceRounds)
	}
	prev, err := RestoreFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if prev.Stats.MaintenanceRounds != 3 {
		t.Fatalf("rotated checkpoint at round %d, want 3", prev.Stats.MaintenanceRounds)
	}
	if _, err := os.Stat(path + ".2"); !os.IsNotExist(err) {
		t.Errorf("keep-last-2 left a third file: %v", err)
	}
	// The restored coordinator picks the schedule back up: three more
	// rounds from 6 land the next auto-snapshot at round 9. (The round-6
	// checkpoint recorded one completed write — its own bump lands after
	// the bytes are sealed.)
	if o2.Stats.SnapshotWrites != 1 {
		t.Fatalf("checkpoint recorded %d writes, want 1", o2.Stats.SnapshotWrites)
	}
	for i := 0; i < 3; i++ {
		if _, err := o2.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	if o2.Stats.SnapshotWrites != 2 {
		t.Fatalf("restored session wrote %d snapshots, want 2", o2.Stats.SnapshotWrites)
	}
	again, err := RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.MaintenanceRounds != 9 {
		t.Fatalf("resumed schedule checkpointed round %d, want 9", again.Stats.MaintenanceRounds)
	}
}

// TestRestartRejoinAccounting pins the churn counters across a full
// crash+restart cycle: the node's death books one abrupt failure, its
// revival books one Rejoin, and Joins/Leaves never move — the ghost-leave
// double-count regression.
func TestRestartRejoinAccounting(t *testing.T) {
	o := snapshotSession(t, 29)
	joins, leaves := o.Stats.Joins, o.Stats.Leaves
	fails := o.Stats.AbruptFailures

	// Pick a mid-tree victim with children so cleanup has real work.
	victim := -1
	for i := 1; i < len(o.nodes); i++ {
		if o.live[i] && len(o.nodes[i].children) > 0 && o.nodes[i].parent >= 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior node to crash")
	}
	n := o.N()
	if err := o.FailAbrupt(victim); err != nil {
		t.Fatal(err)
	}
	// Crash detected but NOT yet repaired: restart must finish the cleanup.
	if _, err := o.Restart(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !o.live[victim] || o.N() != n {
		t.Fatalf("restart did not revive: alive=%v N=%d want %d", o.live[victim], o.N(), n)
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("audit after restart: %v", err)
	}
	if o.Stats.Joins != joins || o.Stats.Leaves != leaves {
		t.Fatalf("restart moved join/leave counters: joins %d→%d leaves %d→%d",
			joins, o.Stats.Joins, leaves, o.Stats.Leaves)
	}
	if o.Stats.AbruptFailures != fails+1 || o.Stats.Rejoins != 1 {
		t.Fatalf("crash+restart books (failures=%d rejoins=%d), want (+1, 1)",
			o.Stats.AbruptFailures-fails, o.Stats.Rejoins)
	}

	// A ghost leave (lost goodbye) followed by restart: still one Rejoin,
	// and the ghost's stale wiring is cleaned, not duplicated.
	ghost := -1
	for i := 1; i < len(o.nodes); i++ {
		if o.live[i] && o.nodes[i].parent >= 0 && i != victim {
			ghost = i
			break
		}
	}
	plane, err := faultplane.New(faultplane.Scenario{Seed: 3, LossRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Leave(ghost); err != nil {
		t.Fatal(err)
	}
	if err := o.SetTransport(nil, DefaultFaultConfig()); err != nil {
		t.Fatal(err)
	}
	leaves = o.Stats.Leaves
	if _, err := o.Restart(ghost); err != nil {
		t.Fatalf("restart of ghost: %v", err)
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("audit after ghost restart: %v", err)
	}
	if o.Stats.Rejoins != 2 || o.Stats.Leaves != leaves {
		t.Fatalf("ghost restart books rejoins=%d leaves %d→%d, want 2 and unchanged",
			o.Stats.Rejoins, leaves, o.Stats.Leaves)
	}
	// The counters survive a snapshot/restore cycle intact.
	var buf bytes.Buffer
	if err := o.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	o2, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Stats.Rejoins != 2 || o2.Stats.Joins != o.Stats.Joins {
		t.Fatalf("counters drifted through restore: %+v", o2.Stats)
	}
}

func TestRestartErrors(t *testing.T) {
	o := snapshotSession(t, 31)
	if _, err := o.Restart(0); err == nil {
		t.Error("restarted the source")
	}
	if _, err := o.Restart(len(o.nodes)); err == nil {
		t.Error("restarted a node that never existed")
	}
	if _, err := o.Restart(1); err == nil {
		t.Error("restarted a live node")
	}
}

// TestRefusedRestartCountsMessages drives each refused Restart exit and
// checks that JoinMessages moves by exactly the messages the restart sent.
func TestRefusedRestartCountsMessages(t *testing.T) {
	// x leaves gracefully, fully cleaned; a sits under the source and
	// takes its last local slot (K 1, degree 3: two slots stay reserved).
	setup := func(t *testing.T) (o *Overlay, x, a int) {
		t.Helper()
		o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 1, MaxOutDegree: 3})
		if err != nil {
			t.Fatal(err)
		}
		if x, _, err = o.Join(geom.Point2{X: 0.02}); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Leave(x); err != nil {
			t.Fatal(err)
		}
		if a, _, err = o.Join(geom.Point2{X: 0.01}); err != nil {
			t.Fatal(err)
		}
		return o, x, a
	}
	cases := []struct {
		name string
		prep func(t *testing.T, o *Overlay, x, a int)
		want string
	}{
		{"source unreachable", func(t *testing.T, o *Overlay, x, a int) {
			if err := o.SetTransport(blackhole{victim: int32(x)}, DefaultFaultConfig()); err != nil {
				t.Fatal(err)
			}
		}, "could not reach the source"},
		{"out of capacity", func(t *testing.T, o *Overlay, x, a int) {
			if err := o.FailAbrupt(a); err != nil { // a dead child still holds the slot
				t.Fatal(err)
			}
		}, "out of capacity"},
		{"parent unreachable", func(t *testing.T, o *Overlay, x, a int) {
			if err := o.SetTransport(blackhole{victim: int32(a)}, DefaultFaultConfig()); err != nil {
				t.Fatal(err)
			}
		}, "could not reach a parent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, x, a := setup(t)
			tc.prep(t, o, x, a)
			before := o.Stats.JoinMessages
			st, err := o.Restart(x)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if st.Messages == 0 {
				t.Fatal("the refused restart reports no messages")
			}
			if got := o.Stats.JoinMessages - before; got != st.Messages {
				t.Errorf("JoinMessages moved by %d, the refused restart sent %d", got, st.Messages)
			}
			if o.live[x] || o.Stats.Rejoins != 0 {
				t.Errorf("a refused restart revived the node (live %v, rejoins %d)", o.live[x], o.Stats.Rejoins)
			}
		})
	}
}

// TestRestoreRejectsDisagreeingRepColumn: the v1 representative column is
// derived from reps, so a payload whose column disagrees with them (one
// byte flipped, then resealed so the checksum passes) is corrupt.
func TestRestoreRejectsDisagreeingRepColumn(t *testing.T) {
	o := snapshotSession(t, 37)
	blob, err := o.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	_, payload, err := snapshot.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	// One byte per node, the column follows the liveness column, whose
	// node-1 byte is the only one that moves with node 1's liveness.
	o.live[1] = !o.live[1]
	moved, err := o.checkpoint()
	o.live[1] = !o.live[1]
	if err != nil {
		t.Fatal(err)
	}
	_, payload2, err := snapshot.Open(moved)
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for at < len(payload) && payload[at] == payload2[at] {
		at++
	}
	col := at - 1 + len(o.nodes) // node i's flag is payload[col+i]
	rep, other := int32(-1), int32(-1)
	for i := int32(1); int(i) < len(o.nodes); i++ {
		flag := byte(0)
		if o.isRep(i) {
			flag, rep = 1, i
		} else {
			other = i
		}
		if payload[col+int(i)] != flag {
			t.Fatalf("node %d's flag is not at offset %d", i, col+int(i))
		}
	}
	if rep < 0 || other < 0 {
		t.Fatal("the session needs a representative and a plain member")
	}
	if _, err := RestoreBytes(snapshot.Seal(snapshot.KindOverlay, payload)); err != nil {
		t.Fatalf("the resealed, untouched payload does not restore: %v", err)
	}
	for _, flip := range []int32{rep, other} {
		tampered := append([]byte(nil), payload...)
		tampered[col+int(flip)] ^= 1
		if _, err := RestoreBytes(snapshot.Seal(snapshot.KindOverlay, tampered)); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("node %d's flag flipped: err = %v, want ErrCorrupt", flip, err)
		}
	}
}

// TestGroupSetReservedByteIgnored: the group-set payload's second byte,
// once an armed round-clock tick, is reserved. A set written with it set
// restores, and re-encodes with it clear.
func TestGroupSetReservedByteIgnored(t *testing.T) {
	plane, err := faultplane.New(faultplane.Scenario{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGroupSet(plane, FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Create("a", groupCfg()); err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	for i := 0; i < 15; i++ {
		gs.Join("a", r.UniformDisk(1))
	}
	var buf bytes.Buffer
	if err := gs.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	_, payload, err := snapshot.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if payload[0] != 1 || payload[1] != 0 {
		t.Fatalf("payload opens %v, want a shared transport and a clear reserved byte", payload[:2])
	}
	set := append([]byte(nil), payload...)
	set[1] = 1
	gs2, err := RestoreGroupSet(bytes.NewReader(snapshot.Seal(snapshot.KindGroupSet, set)), plane, nil)
	if err != nil {
		t.Fatalf("reserved byte 1: %v", err)
	}
	gs2.Group("a").Stats.Restores--
	var again bytes.Buffer
	if err := gs2.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Error("the restored set does not re-encode to the original blob")
	}
}

func TestGroupSetSnapshotRoundTrip(t *testing.T) {
	gs, err := NewGroupSet(nil, FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"music", "news", "sports"} {
		if _, err := gs.Create(name, groupCfg()); err != nil {
			t.Fatal(err)
		}
	}
	// The same substrate hosts subscribe to several groups — the overlap
	// the interned position table deduplicates.
	r := rng.New(41)
	for i := 0; i < 50; i++ {
		p := r.UniformDisk(1)
		for _, name := range gs.Names() {
			if _, _, err := gs.Join(name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := gs.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), buf.Bytes()...)

	// Shared-substrate economics: the set envelope must be smaller than
	// the three per-group snapshots, which each repeat the positions.
	perGroup := 0
	for _, name := range gs.Names() {
		var b bytes.Buffer
		if err := gs.Group(name).WriteSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		perGroup += b.Len()
	}
	if len(blob) >= perGroup {
		t.Errorf("set snapshot %dB not smaller than %dB of per-group snapshots", len(blob), perGroup)
	}

	gs2, err := RestoreGroupSet(bytes.NewReader(blob), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := gs2.Names(); len(got) != 3 || got[0] != "music" {
		t.Fatalf("Names() = %v", got)
	}
	for _, name := range gs2.Names() {
		o, o2 := gs.Group(name), gs2.Group(name)
		if o2.N() != o.N() {
			t.Fatalf("%s: %d members, want %d", name, o2.N(), o.N())
		}
		if o2.Stats.Restores != 1 {
			t.Errorf("%s: Restores = %d", name, o2.Stats.Restores)
		}
		if err := o2.Audit(); err != nil {
			t.Fatalf("%s: audit: %v", name, err)
		}
		r1, _ := o.Radius()
		r2, _ := o2.Radius()
		if r1 != r2 {
			t.Fatalf("%s: radius %v vs %v", name, r1, r2)
		}
	}
	// The restored set keeps operating as one substrate.
	if _, _, err := gs2.Join("news", rng.New(5).UniformDisk(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := gs2.MaintenanceAll(); err != nil {
		t.Fatal(err)
	}

	// Corruption is detected, and the transport contract is enforced.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 1
	if _, err := RestoreGroupSet(bytes.NewReader(bad), nil, nil); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("corrupt set accepted: %v", err)
	}
	plane, err := faultplane.New(faultplane.Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreGroupSet(bytes.NewReader(blob), plane, nil); err == nil {
		t.Error("reliable snapshot restored onto a lossy transport")
	}
}

func TestGroupSetSnapshotSharedTransport(t *testing.T) {
	plane, err := faultplane.New(faultplane.Scenario{Seed: 9, LossRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGroupSet(plane, DefaultFaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(43)
	for _, name := range []string{"a", "b"} {
		if _, err := gs.Create(name, groupCfg()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			gs.Join(name, r.UniformDisk(1))
		}
	}
	if _, err := gs.MaintenanceAll(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gs.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if _, err := RestoreGroupSet(bytes.NewReader(blob), nil, nil); err == nil {
		t.Fatal("shared-transport snapshot restored without a transport")
	}
	plane2, err := faultplane.New(faultplane.Scenario{Seed: 9, LossRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	gs2, err := RestoreGroupSet(bytes.NewReader(blob), plane2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs2.MaintenanceAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range gs2.Names() {
		if err := gs2.Group(name).AuditDegraded(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// FuzzSnapshotRoundTrip: decoding arbitrary bytes must never panic, and
// any input that decodes must re-encode byte-identical.
func FuzzSnapshotRoundTrip(f *testing.F) {
	// Seed with a real snapshot so the fuzzer starts from valid structure.
	cfg := sessionConfig(2)
	o, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 12; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := o.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("OMTS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := Restore(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.Equal(reencode(o), data) {
			t.Fatal("decode/encode round trip not byte-identical")
		}
		// The checkpoint buffer is sized from this bound; it is only a
		// hint, but one below the payload would cost every write a regrow.
		_, payload, _ := snapshot.Open(data)
		if bound := o.encodedSizeBound(); bound < len(payload) {
			t.Fatalf("size bound %d below the %d-byte payload", bound, len(payload))
		}
	})
}

// byteCounter is an io.Writer that keeps only the number of bytes written.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// TestCheckpointAllocation: one WriteSnapshot of a 20k-member drifting,
// lossy session allocates at most 1.5x the blob it writes. The payload is
// encoded in place into one buffer sized from encodedSizeBound and sealed
// there; growing it by appends and copying it into a second buffer to seal
// allocated several times the blob.
func TestCheckpointAllocation(t *testing.T) {
	o := driftSession(t, 20000, 23,
		DriftConfig{ReestimatePeriod: 2, DegradationThreshold: 1.05, Policy: RepairLocal},
		coords.DriftConfig{Seed: 23, JumpRate: 0.01, JumpMean: 0.15, InflationPerEpoch: 0.05, Bound: 0.99})
	plane, err := faultplane.New(faultplane.Scenario{Seed: 23, LossRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ { // populate detector counters and drift state
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	var blob byteCounter
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = o.WriteSnapshot(&blob)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("blob %d B, allocated %d B (%.2fx), size bound %d B", blob, alloc, float64(alloc)/float64(blob), o.encodedSizeBound())
	if float64(alloc) > 1.5*float64(blob) {
		t.Fatalf("WriteSnapshot allocated %d B for a %d B blob (%.2fx > 1.5x)", alloc, blob, float64(alloc)/float64(blob))
	}
}
