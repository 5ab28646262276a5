package protocol

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"omtree/internal/coords"
	"omtree/internal/rng"
	"omtree/internal/snapshot"
	"omtree/internal/tree"
)

// The v1 checkpoint goldens are snapshot blobs written once and committed,
// so a change to the snapshot layout — of the overlay, the group set, or
// the core BuildState both embed — fails here instead of silently
// orphaning every checkpoint on disk. The hashes file pins the trees the
// blobs restore to. Never regenerate these to make a failure go away: a
// checkpoint written by an earlier commit must stay readable.
const (
	goldenOverlayBlob  = "testdata/overlay_v1.omts"
	goldenGroupSetBlob = "testdata/groupset_v1.omts"
	goldenBlobHashes   = "testdata/snapshot_v1.sha256"
)

// goldenOverlaySession is the pinned overlay: a few hundred members, one
// full rebuild, drift on, two leaves, and maintenance rounds under drift.
func goldenOverlaySession(t *testing.T) *Overlay {
	t.Helper()
	cfg := sessionConfig(5)
	cfg.Drift = DriftConfig{
		ReestimatePeriod:     3,
		DegradationThreshold: 1.3,
		FullRebuildCutoff:    0.5,
		Policy:               RepairLocal,
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2004)
	for i := 0; i < 300; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	m, err := coords.NewDriftModel(coords.DriftConfig{Seed: 2004, VelocityMean: 0.004, InflationPerEpoch: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetDrift(m); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{7, 120} {
		if _, err := o.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// goldenGroupSet is the pinned two-group set: groups of different sizes
// over overlapping host positions, both rebuilt, one churned since.
func goldenGroupSet(t *testing.T) *GroupSet {
	t.Helper()
	gs, err := NewGroupSet(nil, FaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2005)
	hosts := r.UniformDiskN(200, 1)
	for gi, name := range []string{"alpha", "beta"} {
		if _, err := gs.Create(name, groupCfg()); err != nil {
			t.Fatal(err)
		}
		for h := gi; h < len(hosts); h += gi + 1 {
			if _, _, err := gs.Join(name, hosts[h]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range gs.Names() {
		if _, err := gs.Rebuild(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gs.Leave("beta", 3); err != nil {
		t.Fatal(err)
	}
	return gs
}

// parentsHash is the SHA-256 of a tree's parent array, little-endian int32s.
func parentsHash(tr *tree.Tree) string {
	h := sha256.New()
	var buf [4]byte
	for _, p := range tr.Parents() {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// restoredTreeLines fingerprints a restored overlay: the member tree its
// nodes hold, and the tree its core BuildState rebuilds to.
func restoredTreeLines(t *testing.T, label string, o *Overlay) []string {
	t.Helper()
	tr, _, _, err := o.Snapshot()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	res, _, err := o.bs.Rebuild()
	if err != nil {
		t.Fatalf("%s: core rebuild: %v", label, err)
	}
	return []string{
		fmt.Sprintf("%s overlay n=%d parents=%s", label, tr.N(), parentsHash(tr)),
		fmt.Sprintf("%s core n=%d k=%d parents=%s", label, res.Tree.N(), res.K, parentsHash(res.Tree)),
	}
}

func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotGoldenV1 restores the committed v1 checkpoints: each must
// decode, pass Audit, re-encode byte-identically, and restore to the pinned
// trees. -update rewrites the blobs from the sessions above; only a
// deliberate, versioned format change may do that.
func TestSnapshotGoldenV1(t *testing.T) {
	if *update {
		var ob, gb bytes.Buffer
		if err := goldenOverlaySession(t).WriteSnapshot(&ob); err != nil {
			t.Fatal(err)
		}
		if err := goldenGroupSet(t).WriteSnapshot(&gb); err != nil {
			t.Fatal(err)
		}
		writeGolden(t, goldenOverlayBlob, ob.Bytes())
		writeGolden(t, goldenGroupSetBlob, gb.Bytes())
	}

	var lines []string
	blob, err := os.ReadFile(goldenOverlayBlob)
	if err != nil {
		t.Fatal(err)
	}
	o, err := RestoreBytes(blob)
	if err != nil {
		t.Fatalf("overlay checkpoint: %v", err)
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("restored overlay audit: %v", err)
	}
	if !bytes.Equal(reencode(o), blob) {
		t.Fatal("restored overlay does not re-encode byte-identically")
	}
	lines = append(lines, restoredTreeLines(t, "overlay", o)...)

	blob, err = os.ReadFile(goldenGroupSetBlob)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := RestoreGroupSet(bytes.NewReader(blob), nil, nil)
	if err != nil {
		t.Fatalf("group-set checkpoint: %v", err)
	}
	if gs.Len() != 2 {
		t.Fatalf("restored %d groups, want 2", gs.Len())
	}
	for _, name := range gs.Names() {
		if err := gs.Group(name).Audit(); err != nil {
			t.Fatalf("restored group %s audit: %v", name, err)
		}
		gs.Group(name).Stats.Restores--
	}
	var again bytes.Buffer
	if err := gs.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Fatal("restored group set does not re-encode byte-identically")
	}
	for _, name := range gs.Names() {
		lines = append(lines, restoredTreeLines(t, "groupset/"+name, gs.Group(name))...)
	}

	got := strings.Join(lines, "\n") + "\n"
	if *update {
		writeGolden(t, goldenBlobHashes, []byte(got))
		return
	}
	want, err := os.ReadFile(goldenBlobHashes)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("restored trees differ from %s\n got:\n%s\nwant:\n%s", goldenBlobHashes, got, want)
	}
}

// The departed-slot checkpoint pins the hard case of the BuildState
// section: columns whose values outlive the membership they describe. Its
// core state holds the old cell of members that left while a full rebuild
// was pending, which that rebuild never clears, and the old parent of
// members that left before an incremental rebuild, which never touches an
// absent slot. Like the v1 goldens above, the blob was written once and is
// never regenerated to make a failure go away.
const (
	goldenDepartedBlob   = "testdata/overlay_departed_v1.omts"
	goldenDepartedHashes = "testdata/overlay_departed_v1.sha256"
)

// goldenDepartedSession is the pinned departed-slot overlay: 300 members
// and a full rebuild; then the outermost member and the next two ids leave,
// which forces the next rebuild to be full; then four more leave before an
// incremental rebuild, and two more after it.
func goldenDepartedSession(t *testing.T) *Overlay {
	t.Helper()
	o, err := New(sessionConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2006)
	for i := 0; i < 300; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	rebuild := func(wantIncremental bool) {
		t.Helper()
		before := o.Stats.IncrementalRebuilds
		if _, err := o.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if got := o.Stats.IncrementalRebuilds > before; got != wantIncremental {
			t.Fatalf("rebuild incremental = %v, want %v", got, wantIncremental)
		}
	}
	leave := func(id int) {
		t.Helper()
		if _, err := o.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	rebuild(false)
	far := 1
	for id := 2; id < len(o.nodes); id++ {
		if o.nodes[id].pos.Dist(o.cfg.Source) > o.nodes[far].pos.Dist(o.cfg.Source) {
			far = id
		}
	}
	// The rebuild removes slots in id order: the outermost first, which
	// trips the full-rebuild guard before the two after it are removed.
	for id := far; id < far+3; id++ {
		leave(1 + (id-1)%300)
	}
	rebuild(false)
	for _, id := range []int{17, 88, 151, 233} {
		leave(id)
	}
	rebuild(true)
	for _, id := range []int{41, 199} {
		leave(id)
	}
	return o
}

// TestSnapshotGoldenV1Departed restores the committed departed-slot
// checkpoint: it must decode, pass Audit, re-encode byte-identically, and
// rebuild to the pinned trees. -update rewrites the blob and its hashes.
func TestSnapshotGoldenV1Departed(t *testing.T) {
	if *update {
		var buf bytes.Buffer
		if err := goldenDepartedSession(t).WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		writeGolden(t, goldenDepartedBlob, buf.Bytes())
	}
	blob, err := os.ReadFile(goldenDepartedBlob)
	if err != nil {
		t.Fatal(err)
	}
	o, err := RestoreBytes(blob)
	if err != nil {
		t.Fatalf("departed-slot checkpoint: %v", err)
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("restored overlay audit: %v", err)
	}
	if !bytes.Equal(reencode(o), blob) {
		t.Fatal("restored overlay does not re-encode byte-identically")
	}
	lines := restoredTreeLines(t, "departed", o)
	// A rebuild through the overlay rewires it from the retained state.
	if _, err := o.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("rebuilt overlay audit: %v", err)
	}
	lines = append(lines, restoredTreeLines(t, "departed/rebuilt", o)...)

	got := strings.Join(lines, "\n") + "\n"
	if *update {
		writeGolden(t, goldenDepartedHashes, []byte(got))
		return
	}
	want, err := os.ReadFile(goldenDepartedHashes)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("restored trees differ from %s\n got:\n%s\nwant:\n%s", goldenDepartedHashes, got, want)
	}
}

// The retired-slot checkpoint pins a v1 stats field whose counter is gone.
// The seventh stats slot counted the messages of Optimize, a local repair
// round since deleted in favour of Rebuild; the layout keeps the slot, and
// every other committed blob holds 0 there. This one was written by the
// last commit that still had Optimize, with a test in this package that
// ran, in order:
//
//	o, _ := New(sessionConfig(5))
//	r := rng.New(2007)
//	300 × reliableJoin(t, o, r.UniformDisk(1))
//	o.Rebuild()
//	40 × reliableJoin(t, o, r.UniformDisk(1))
//	one Optimize round // 241 moves, 3721 messages
//	o.WriteSnapshot(&buf)
//
// and then wrote the hashes file from RestoreBytes(blob): each remaining
// SessionStats field by name, the retired slot's value, and
// restoredTreeLines(t, "retired", o). The blob cannot be regenerated.
const (
	goldenRetiredBlob   = "testdata/overlay_retired_v1.omts"
	goldenRetiredHashes = "testdata/overlay_retired_v1.sha256"
)

// TestSnapshotGoldenV1RetiredSlot restores a checkpoint with a non-zero
// retired stats slot: it must decode, pass Audit, keep every remaining
// counter and both trees, and re-encode differing from the blob only in
// that slot, which now writes 0.
func TestSnapshotGoldenV1RetiredSlot(t *testing.T) {
	blob, err := os.ReadFile(goldenRetiredBlob)
	if err != nil {
		t.Fatal(err)
	}
	o, err := RestoreBytes(blob)
	if err != nil {
		t.Fatalf("retired-slot checkpoint: %v", err)
	}
	if err := o.Audit(); err != nil {
		t.Fatalf("restored overlay audit: %v", err)
	}

	// The stats section ends the payload, so both payloads must share
	// everything before it and differ inside it only at the retired slot.
	_, payload, err := snapshot.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	_, again, err := snapshot.Open(reencode(o))
	if err != nil {
		t.Fatal(err)
	}
	const retiredSlot = 6
	var e snapshot.Encoder
	o.Stats.Restores-- // as reencode does: the blob predates the restore
	for _, f := range statsFields(&o.Stats) {
		e.Int(*f.v)
	}
	o.Stats.Restores++
	start := len(again) - len(e.Bytes())
	if start < 0 || start > len(payload) || !bytes.Equal(payload[:start], again[:start]) {
		t.Fatal("re-encoded payload differs before the stats section")
	}
	readStats := func(b []byte) []int {
		d := snapshot.NewDecoder(b)
		vs := make([]int, len(statsFields(&o.Stats)))
		for i := range vs {
			vs[i] = d.Int()
		}
		if d.Err() != nil || d.Len() != 0 {
			t.Fatalf("stats section: err %v, %d bytes left", d.Err(), d.Len())
		}
		return vs
	}
	was, now := readStats(payload[start:]), readStats(again[start:])
	for i := range was {
		if i != retiredSlot && was[i] != now[i] {
			t.Errorf("stats slot %d: blob %d, re-encoded %d", i+1, was[i], now[i])
		}
	}
	if was[retiredSlot] == 0 || now[retiredSlot] != 0 {
		t.Errorf("retired slot: blob %d, re-encoded %d; want non-zero, 0", was[retiredSlot], now[retiredSlot])
	}

	var lines []string
	v := reflect.ValueOf(o.Stats)
	for i := 0; i < v.NumField(); i++ {
		lines = append(lines, fmt.Sprintf("retired stats %s=%d", v.Type().Field(i).Name, v.Field(i).Int()))
	}
	lines = append(lines, fmt.Sprintf("retired slot %d=%d", retiredSlot+1, was[retiredSlot]))
	lines = append(lines, restoredTreeLines(t, "retired", o)...)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(goldenRetiredHashes)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("restored overlay differs from %s\n got:\n%s\nwant:\n%s", goldenRetiredHashes, got, want)
	}
}
