package protocol

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omtree/internal/coords"
	"omtree/internal/rng"
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
