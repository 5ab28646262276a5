package multigroup

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/tree"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// The departed-slot group checkpoint was written once and committed. Its
// build state remembers members that left: the old cell of members that
// left while a full rebuild was pending, and the old parent of members that
// left before an incremental rebuild. Restoring it pins the BuildState
// section's compatibility on the shared-geometry path. Never regenerate it
// to make a failure go away.
const (
	goldenGroupBlob   = "testdata/group_departed_v1.omts"
	goldenGroupHashes = "testdata/group_departed_v1.sha256"
)

// goldenDepartedGroup is the pinned group: 200 of 300 hosts and a full
// build; the outermost member and two more leave, which forces the next
// build to be full; four more leave before an incremental build; then two
// more leave and one host joins.
func goldenDepartedGroup(t *testing.T, sub *Substrate) *GroupTree {
	t.Helper()
	g, err := sub.NewGroup(GroupConfig{Source: []float64{0.1, -0.2}, MaxOutDegree: 6, ID: "departed"})
	if err != nil {
		t.Fatal(err)
	}
	build := func(wantFull bool) {
		t.Helper()
		if _, full, err := g.Build(); err != nil || full != wantFull {
			t.Fatalf("build: full = %v, %v; want full = %v", full, err, wantFull)
		}
	}
	leave := func(h int) {
		t.Helper()
		if err := g.Leave(h); err != nil {
			t.Fatal(err)
		}
	}
	for h := 0; h < sub.Hosts(); h++ {
		if h%3 != 0 {
			if err := g.Join(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	build(true)
	src := geom.Point2{X: 0.1, Y: -0.2}
	members := g.Members()
	far := 0
	for i, h := range members {
		if sub.Host2(h).Dist(src) > sub.Host2(members[far]).Dist(src) {
			far = i
		}
	}
	// The outermost member leaves first, which trips the full-rebuild
	// guard; the two members after it leave while that rebuild is pending.
	for i := far; i < far+3; i++ {
		leave(members[i%len(members)])
	}
	build(true)
	members = g.Members()
	for _, i := range []int{10, 50, 90, 130} {
		leave(members[i])
	}
	build(false)
	members = g.Members()
	leave(members[20])
	leave(members[120])
	if err := g.Join(33); err != nil {
		t.Fatal(err)
	}
	return g
}

// groupParentsHash is the SHA-256 of a tree's parent array, little-endian
// int32s.
func groupParentsHash(tr *tree.Tree) string {
	h := sha256.New()
	var buf [4]byte
	for _, p := range tr.Parents() {
		binary.LittleEndian.PutUint32(buf[:], uint32(p))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGroupSnapshotGoldenV1Departed restores the committed departed-slot
// group checkpoint: it must decode, re-encode byte-identically, and build
// to the pinned trees, before and after more churn. -update rewrites the
// blob and its hashes.
func TestGroupSnapshotGoldenV1Departed(t *testing.T) {
	sub, err := NewSubstrate(snapshotHosts(300, 57))
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		var buf bytes.Buffer
		if err := goldenDepartedGroup(t, sub).WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenGroupBlob), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenGroupBlob, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(goldenGroupBlob)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.RestoreGroup(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("departed-slot group checkpoint: %v", err)
	}
	var again bytes.Buffer
	if err := g.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Fatal("restored group does not re-encode byte-identically")
	}
	var lines []string
	build := func(label string) {
		t.Helper()
		res, full, err := g.Build()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		lines = append(lines, fmt.Sprintf("%s n=%d k=%d full=%v parents=%s", label, res.Tree.N(), res.K, full, groupParentsHash(res.Tree)))
	}
	build("restored")
	for _, h := range []int{7, 8} {
		if err := g.Leave(h); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []int{0, 3} {
		if err := g.Join(h); err != nil {
			t.Fatal(err)
		}
	}
	build("churned")

	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(goldenGroupHashes, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenGroupHashes)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("restored trees differ from %s\n got:\n%s\nwant:\n%s", goldenGroupHashes, got, want)
	}
}
