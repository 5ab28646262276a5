package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/snapshot"
	"omtree/internal/tree"
)

// encodeState serializes s with the raw point codec.
func encodeState(s *BuildState) []byte {
	var e snapshot.Encoder
	s.EncodeTo(&e, nil)
	return e.Bytes()
}

// TestBuildStateSnapshotRoundTrip drives a state through churn and
// rebuilds, snapshotting at every step, and checks that the decoded state
// re-encodes byte-identically and that both copies build the same tree
// from then on.
func TestBuildStateSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s, err := NewBuildState(geom.Point2{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	next := 1
	live := []int{}
	checkpoint := func(step string) {
		t.Helper()
		blob := encodeState(s)
		got, err := DecodeBuildState(snapshot.NewDecoder(blob), nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", step, err)
		}
		if re := encodeState(got); !bytes.Equal(re, blob) {
			t.Fatalf("%s: re-encode differs (%d vs %d bytes)", step, len(re), len(blob))
		}
		// Both copies must rebuild to the identical tree with the same
		// full/incremental decision.
		r1, full1, err1 := s.Rebuild()
		r2, full2, err2 := got.Rebuild()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: rebuild errs diverge: %v vs %v", step, err1, err2)
		}
		if err1 != nil {
			return
		}
		if full1 != full2 {
			t.Fatalf("%s: full=%v vs %v", step, full1, full2)
		}
		if r1.Radius != r2.Radius || r1.K != r2.K || !treesEqual(r1.Tree, r2.Tree) {
			t.Fatalf("%s: rebuilt trees diverge", step)
		}
		if s.Certificate() != got.Certificate() {
			t.Fatalf("%s: certificates diverge", step)
		}
	}

	checkpoint("empty") // degenerate: no receivers yet

	for step := 0; step < 60; step++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			i := rng.Intn(len(live))
			s.Remove(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			p := geom.Point2{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10}
			s.Add(next, p)
			live = append(live, next)
			next++
		}
		if step%7 == 0 {
			if _, _, err := s.Rebuild(); err != nil {
				t.Fatal(err)
			}
		}
		if step%5 == 0 {
			checkpoint("churn")
		}
	}
	if _, _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	checkpoint("final")
}

// TestBuildStateSnapshotShared round-trips a state borrowing a shared
// geometry: the substrate is supplied at decode and the encoding carries
// only the per-group delta.
func TestBuildStateSnapshotShared(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	hosts := make([]geom.Point2, 40)
	for i := range hosts {
		hosts[i] = geom.Point2{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	geo := NewSlotGeometry(geom.Point2{X: 5, Y: 5}, hosts)
	s, err := NewBuildStateShared(geo)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 30; slot++ {
		s.AddSlot(slot)
	}
	if _, _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	s.Remove(7)
	s.Remove(19)

	blob := encodeState(s)
	got, err := DecodeBuildStateShared(snapshot.NewDecoder(blob), geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	var re snapshot.Encoder
	got.EncodeTo(&re, nil)
	if !bytes.Equal(re.Bytes(), blob) {
		t.Fatal("shared state re-encode differs")
	}
	r1, _, err1 := s.Rebuild()
	r2, _, err2 := got.Rebuild()
	if err1 != nil || err2 != nil {
		t.Fatalf("rebuild: %v / %v", err1, err2)
	}
	if !treesEqual(r1.Tree, r2.Tree) {
		t.Fatal("shared state trees diverge after restore")
	}

	// A shared encoding carries no host table, so it is much smaller than
	// the owned form of the same membership.
	owned, err := NewBuildState(geom.Point2{X: 5, Y: 5})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 30; slot++ {
		owned.Add(slot, hosts[slot-1])
	}
	if _, _, err := owned.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(encodeState(owned)) {
		t.Errorf("shared encoding (%d bytes) not smaller than owned (%d bytes)", len(blob), len(encodeState(owned)))
	}

	// Decoding with the wrong entry point is a clean error both ways.
	if _, err := DecodeBuildState(snapshot.NewDecoder(blob), nil); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("shared blob through DecodeBuildState: %v, want ErrCorrupt", err)
	}
	ownedBlob := encodeState(owned)
	if _, err := DecodeBuildStateShared(snapshot.NewDecoder(ownedBlob), geo, nil); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("owned blob through DecodeBuildStateShared: %v, want ErrCorrupt", err)
	}
	if _, err := DecodeBuildStateShared(snapshot.NewDecoder(blob), nil, nil); err == nil {
		t.Error("DecodeBuildStateShared with nil geometry succeeded")
	}
}

// TestBuildStateSnapshotCorrupt checks that truncations and targeted
// mutations of a valid payload decode to an error, never a panic, and
// that semantic inconsistencies a checksum cannot catch are rejected.
func TestBuildStateSnapshotCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s, err := NewBuildState(geom.Point2{})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 25; slot++ {
		s.Add(slot, geom.Point2{X: rng.Float64()*8 - 4, Y: rng.Float64()*8 - 4})
	}
	if _, _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	blob := encodeState(s)

	for cut := 0; cut < len(blob); cut += 3 {
		if _, err := DecodeBuildState(snapshot.NewDecoder(blob[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), blob...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		st, err := DecodeBuildState(snapshot.NewDecoder(mut), nil)
		if err != nil {
			continue
		}
		// A mutation that still decodes must yield a state safe to rebuild
		// (the flip may have landed in a float or a counter).
		if _, _, err := st.Rebuild(); err != nil {
			continue
		}
	}
}

func treesEqual(a, b interface{ Parent(int) int }) bool {
	ta, ok1 := a.(interface {
		Parent(int) int
		N() int
	})
	tb, ok2 := b.(interface {
		Parent(int) int
		N() int
	})
	if !ok1 || !ok2 || ta.N() != tb.N() {
		return false
	}
	for i := 0; i < ta.N(); i++ {
		if ta.Parent(i) != tb.Parent(i) {
			return false
		}
	}
	return true
}

// sharedColumns builds a shared state over 60 hosts, 40 of them members,
// rebuilds it, removes two, and returns it with its encoding and the byte
// offsets of the encoding's member lists (the flattened slots), its cell
// column, its reps and its parent column.
func sharedColumns(t *testing.T) (s *BuildState, geo *SlotGeometry, blob []byte, lists, cells, reps, parents int) {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	hosts := make([]geom.Point2, 60)
	for i := range hosts {
		hosts[i] = geom.Point2{X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5}
	}
	geo = NewSlotGeometry(geom.Point2{}, hosts)
	s, err := NewBuildStateShared(geo)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 40; slot++ {
		s.AddSlot(slot)
	}
	if _, _, err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	s.Remove(11)
	s.Remove(23)
	blob = encodeState(s)
	d := snapshot.NewDecoder(blob)
	d.Int()
	d.Int()
	d.Int()
	d.Bool()
	d.Bool()
	d.BoolBits(d.Length(1))
	d.Float64()
	d.Int()
	d.Bool()
	d.Bool()
	ncells := d.Length(1)
	lists = len(blob) - d.Len() + 4*ncells
	d.Int32Lists(ncells)
	d.Length(4)
	cells = len(blob) - d.Len()
	d.Fixed32View(geo.Slots())
	d.Length(4)
	reps = len(blob) - d.Len()
	d.Fixed32View(ncells)
	d.Length(4)
	parents = len(blob) - d.Len()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	return s, geo, blob, lists, cells, reps, parents
}

func putFixed32(blob []byte, off int, v int32) []byte {
	out := append([]byte(nil), blob...)
	out[off], out[off+1], out[off+2], out[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return out
}

func getFixed32(blob []byte, off int) int32 {
	return int32(uint32(blob[off]) | uint32(blob[off+1])<<8 | uint32(blob[off+2])<<16 | uint32(blob[off+3])<<24)
}

// TestBuildStateSnapshotLegacyColumns pins the compatibility rule for
// checkpoints holding column values the layout does not keep: they decode,
// re-encode byte for byte, and build the same trees; the first mutation
// drops them, after which the state writes its derived columns.
func TestBuildStateSnapshotLegacyColumns(t *testing.T) {
	s, geo, blob, _, cells, _, parents := sharedColumns(t)

	// A slot that left after the last build keeps its parent entry until the
	// next build: the layout holds that, so nothing is kept verbatim.
	if getFixed32(blob, parents+4*11) < 0 {
		t.Fatal("slot 11 lost its parent entry before a rebuild")
	}
	got, err := DecodeBuildStateShared(snapshot.NewDecoder(blob), geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.legacy != nil {
		t.Fatal("a checkpoint this layout writes was kept verbatim")
	}

	// An absent slot filed in a cell (what a Remove during a pending full
	// rebuild left behind) and an absent slot parented by -1 (which no build
	// writes) are kept as read.
	stale := putFixed32(blob, cells+4*50, getFixed32(blob, cells+4*5))
	stale = putFixed32(stale, parents+4*55, tree.NoParent)
	for _, mut := range [][]byte{putFixed32(blob, cells+4*50, getFixed32(blob, cells+4*5)), putFixed32(blob, parents+4*55, tree.NoParent), stale} {
		got, err := DecodeBuildStateShared(snapshot.NewDecoder(mut), geo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.legacy == nil {
			t.Fatal("stale columns were not kept")
		}
		if re := encodeState(got); !bytes.Equal(re, mut) {
			t.Fatal("stale columns do not re-encode byte for byte")
		}
		if got.MemoryBytes() <= s.MemoryBytes() {
			t.Errorf("MemoryBytes %d does not count the kept columns (%d without)", got.MemoryBytes(), s.MemoryBytes())
		}
		got.AddSlot(50)
		if got.legacy != nil {
			t.Fatal("a mutation kept the stale columns")
		}
		again, err := DecodeBuildStateShared(snapshot.NewDecoder(encodeState(got)), geo, nil)
		if err != nil || again.legacy != nil {
			t.Fatalf("derived columns after the mutation: legacy %v, %v", again != nil && again.legacy != nil, err)
		}
	}

	// Both states build the same trees from here on.
	restored, err := DecodeBuildStateShared(snapshot.NewDecoder(stale), geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*BuildState{s, restored} {
		st.AddSlot(50)
	}
	r1, _, err1 := s.Rebuild()
	r2, _, err2 := restored.Rebuild()
	if err1 != nil || err2 != nil || !treesEqual(r1.Tree, r2.Tree) {
		t.Fatalf("trees diverge after restoring stale columns: %v, %v", err1, err2)
	}
}

// TestBuildStateSnapshotRejectsInconsistentLists: the decoder refuses member
// lists a later Remove or incremental rebuild could not use, and a clean
// cell represented by a slot that is not its member.
func TestBuildStateSnapshotRejectsInconsistentLists(t *testing.T) {
	s, geo, blob, lists, _, reps, parents := sharedColumns(t)
	// Find a cell with two members (its flattened slots are adjacent), and
	// a clean cell with a representative.
	flat, cell := lists, -1
	for c, m := range s.members {
		if len(m) >= 2 && cell < 0 {
			cell = c
			break
		}
		flat += 4 * len(m)
	}
	if cell < 0 {
		t.Fatal("no cell with two members")
	}
	a, b := getFixed32(blob, flat), getFixed32(blob, flat+4)
	clean := -1
	for c, r := range s.reps {
		if _, dirty := s.dirty[c]; !dirty && r >= 0 && c != cell {
			clean = c
			break
		}
	}
	if clean < 0 {
		t.Fatal("no clean represented cell")
	}
	cases := map[string][]byte{
		"out of order":   putFixed32(putFixed32(blob, flat, b), flat+4, a),
		"duplicate":      putFixed32(blob, flat+4, a),
		"wrong cell":     putFixed32(blob, flat, s.reps[clean]),
		"absent":         putFixed32(blob, flat, 23),
		"rep not member": putFixed32(blob, reps+4*clean, a),
		"rep of no cell": putFixed32(blob, reps+4*clean, -1),
	}
	if _, dirty := s.dirty[0]; !dirty {
		cases["source cell rep"] = putFixed32(blob, reps, a)
	}
	for name, mut := range cases {
		if _, err := DecodeBuildStateShared(snapshot.NewDecoder(mut), geo, nil); !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	// Two members of different cells trading places: each is still filed
	// in the cell it was built in, where its position no longer lies. The
	// state decodes; removing one falls back to a full rebuild, which
	// refiles every member and builds what Build2 builds.
	hosts := append([]geom.Point2(nil), geo.hosts...)
	other := s.reps[clean]
	hosts[a-1], hosts[other-1] = hosts[other-1], hosts[a-1]
	moved, err := DecodeBuildStateShared(snapshot.NewDecoder(blob), NewSlotGeometry(geo.source, hosts), nil)
	if err != nil {
		t.Fatal(err)
	}
	moved.Remove(int(a))
	res, full, err := moved.Rebuild()
	if err != nil || !full {
		t.Fatalf("rebuild after removing a misfiled slot: full = %v, %v", full, err)
	}
	var receivers []geom.Point2
	for sl := 1; sl < geo.Slots(); sl++ {
		if moved.Present(sl) {
			receivers = append(receivers, hosts[sl-1])
		}
	}
	want, err := Build2(geo.source, receivers)
	if err != nil || !treesEqual(res.Tree, want.Tree) {
		t.Fatalf("rebuilt tree differs from Build2 (%v)", err)
	}

	// A clean member whose parent entry names a departed slot decodes (the
	// entry is in range) but fails the next rebuild's export with an error
	// instead of mapping to some other node.
	x := int32(-1)
	for c, m := range s.members {
		if _, dirty := s.dirty[c]; !dirty && len(m) >= 2 {
			x = m[0]
			if x == s.reps[c] {
				x = m[1]
			}
			break
		}
	}
	if x < 0 {
		t.Fatal("no clean cell with two members")
	}
	st, err := DecodeBuildStateShared(snapshot.NewDecoder(putFixed32(blob, parents+4*int(x), 23)), geo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Rebuild(); err == nil || !strings.Contains(err.Error(), "departed slot 23") {
		t.Errorf("rebuild with a parent that left: %v", err)
	}
}
