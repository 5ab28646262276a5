package multigroup

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
	"omtree/internal/snapshot"
)

func snapshotHosts(n int, seed uint64) []geom.Point2 {
	r := rng.New(seed)
	hosts := make([]geom.Point2, n)
	for i := range hosts {
		hosts[i] = r.UniformDisk(1)
	}
	return hosts
}

func TestGroupSnapshotRoundTrip(t *testing.T) {
	hosts := snapshotHosts(300, 51)
	sub, err := NewSubstrate(hosts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.NewGroup(GroupConfig{Source: []float64{0, 0}, MaxOutDegree: 6, ID: "vod"})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 300; h += 2 {
		if err := g.Join(h); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate after the build so dirty-cell state rides along too.
	if err := g.Leave(10); err != nil {
		t.Fatal(err)
	}
	if err := g.Join(11); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), buf.Bytes()...)

	// Deterministic: a second write of the same state is byte-identical.
	var buf2 bytes.Buffer
	if err := g.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, buf2.Bytes()) {
		t.Fatal("two writes of the same state differ")
	}

	g2, err := sub.RestoreGroup(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if g2.ID() != "vod" || g2.Size() != g.Size() {
		t.Fatalf("restored %s/%d, want vod/%d", g2.ID(), g2.Size(), g.Size())
	}
	if g2.Certificate() != g.Certificate() {
		t.Fatal("certificate differs after restore")
	}
	if g2.DirtyFraction() != g.DirtyFraction() {
		t.Fatalf("dirty fraction %v vs %v", g2.DirtyFraction(), g.DirtyFraction())
	}
	// Both trees evolve identically from the common state.
	r1, full1, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	r2, full2, err := g2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if full1 != full2 || r1.Radius != r2.Radius {
		t.Fatalf("diverged: (%v, %v) vs (%v, %v)", r1.Radius, full1, r2.Radius, full2)
	}
	if r2.Radius > res.Bound*2 {
		t.Fatalf("implausible radius %v after restore", r2.Radius)
	}
}

func TestGroupSnapshotRejectsWrongSubstrate(t *testing.T) {
	hosts := snapshotHosts(100, 53)
	sub, err := NewSubstrate(hosts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.NewGroup(GroupConfig{Source: []float64{0, 0}, ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 50; h++ {
		if err := g.Join(h); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := g.Build(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	other, err := NewSubstrate(snapshotHosts(100, 99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.RestoreGroup(bytes.NewReader(blob)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("foreign substrate accepted the delta: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/3] ^= 0x10
	if _, err := sub.RestoreGroup(bytes.NewReader(bad)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("corrupt snapshot accepted: %v", err)
	}
	if _, err := sub.RestoreGroup(bytes.NewReader(blob[:len(blob)/2])); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("torn snapshot accepted: %v", err)
	}
	// 3-D groups have no incremental state to checkpoint.
	sub3, err := NewSubstrate3([]geom.Point3{{X: 1}, {Y: 1}, {Z: 1}})
	if err != nil {
		t.Fatal(err)
	}
	g3, err := sub3.NewGroup(GroupConfig{Source: []float64{0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.WriteSnapshot(&bytes.Buffer{}); err == nil {
		t.Error("3-D group claimed to snapshot")
	}
	if _, err := sub3.RestoreGroup(bytes.NewReader(blob)); err == nil {
		t.Error("3-D substrate claimed to restore")
	}
}

// TestRestoreGroupRejectsMembershipMismatch: a CRC-valid checkpoint whose
// delta-coded member list names host 150 where its build state holds host
// 49 must fail to restore. Accepted, it gave a group that Has(150) while
// its tree spans host 49, and whose Leave(150) panicked in core.
func TestRestoreGroupRejectsMembershipMismatch(t *testing.T) {
	sub, err := NewSubstrate(snapshotHosts(200, 59))
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.NewGroup(GroupConfig{Source: []float64{0, 0}, ID: "m"})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 50; h++ {
		if err := g.Join(h); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := g.Build(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	_, payload, err := snapshot.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode the header and member list as WriteSnapshot does, with the
	// last delta moved from host 49 to host 150, and splice the build state
	// section back on unchanged.
	header := func(last int) []byte {
		var e snapshot.Encoder
		e.Uvarint(uint64(sub.Hosts()))
		e.Uvarint(sub.Checksum())
		e.String("m")
		e.Uvarint(2)
		e.Float64(0)
		e.Float64(0)
		e.Int(0)
		e.Int(0)
		e.Int(0)
		e.Uvarint(50)
		e.Uvarint(0)
		for h := 1; h < 49; h++ {
			e.Uvarint(1)
		}
		e.Uvarint(uint64(last - 48))
		return e.Bytes()
	}
	orig := header(49)
	if !bytes.HasPrefix(payload, orig) {
		t.Fatal("payload header differs from the re-encoded one")
	}
	bad := append(header(150), payload[len(orig):]...)
	_, err = sub.RestoreGroup(bytes.NewReader(snapshot.Seal(snapshot.KindGroupTree, bad)))
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("member list disagreeing with the build state restored: %v", err)
	}
}

// FuzzGroupSnapshotRoundTrip feeds arbitrary bytes to RestoreGroup on a
// fixed substrate, as a whole checkpoint and sealed as a group-tree payload
// (which takes the fuzzer past the envelope's checksum into the decoder).
// Any blob that restores must re-encode byte-identically, and Build, Join
// and Leave on the restored group must return errors, never panic. The seed
// corpus is the committed departed-slot checkpoint, whose build state holds
// the stale columns of members that left.
func FuzzGroupSnapshotRoundTrip(f *testing.F) {
	sub, err := NewSubstrate(snapshotHosts(300, 57))
	if err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(goldenGroupBlob)
	if err != nil {
		f.Fatal(err)
	}
	_, payload, err := snapshot.Open(blob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(payload)
	f.Add([]byte("OMTS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, snapshot.Seal(snapshot.KindGroupTree, data)} {
			g, err := sub.RestoreGroup(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := g.WriteSnapshot(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatal("restore/write round trip not byte-identical")
			}
			// Churn the restored group; every call may fail, none may panic.
			_, _, _ = g.Build()
			for h := 0; h < 12; h++ {
				if g.Has(h) {
					_ = g.Leave(h)
				} else {
					_ = g.Join(h)
				}
			}
			_ = g.Join(-1)
			_ = g.Leave(sub.Hosts())
			_, _, _ = g.Build()
		}
	})
}
