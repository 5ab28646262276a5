package omtree_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"omtree"
	"omtree/internal/snapshot"
)

// reversion rewrites a sealed envelope's format-version byte and
// re-checksums it: an intact envelope written by another format version,
// as a newer build would produce, rather than a torn one.
func reversion(blob []byte, v byte) []byte {
	out := append([]byte(nil), blob...)
	out[4] = v
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// TestSnapshotOtherVersionIsNotCorruption: a version-2 envelope with a
// valid checksum is rejected as ErrSnapshotVersion, not as corruption,
// through the envelope reader and every restore path, so a coordinator can
// tell "written by a newer build" from "torn".
func TestSnapshotOtherVersionIsNotCorruption(t *testing.T) {
	o, err := omtree.NewOverlay(omtree.OverlayConfig{Scale: 1, K: 2, MaxOutDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	var overlay bytes.Buffer
	if err := o.WriteSnapshot(&overlay); err != nil {
		t.Fatal(err)
	}

	gs, err := omtree.NewOverlayGroupSet(nil, omtree.OverlayFaultConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Create("a", omtree.OverlayConfig{Scale: 1, K: 2, MaxOutDegree: 4}); err != nil {
		t.Fatal(err)
	}
	var set bytes.Buffer
	if err := gs.WriteSnapshot(&set); err != nil {
		t.Fatal(err)
	}

	sub, err := omtree.NewSubstrate([]omtree.Point2{{X: 0.5}, {Y: 0.5}, {X: -0.5}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sub.NewGroup(omtree.GroupConfig{Source: []float64{0, 0}, ID: "g"})
	if err != nil {
		t.Fatal(err)
	}
	var group bytes.Buffer
	if err := g.WriteSnapshot(&group); err != nil {
		t.Fatal(err)
	}

	paths := map[string]func() error{
		"snapshot.Open": func() error {
			_, _, err := snapshot.Open(reversion(overlay.Bytes(), 2))
			return err
		},
		"RestoreOverlayBytes": func() error {
			_, err := omtree.RestoreOverlayBytes(reversion(overlay.Bytes(), 2))
			return err
		},
		"RestoreOverlayGroupSet": func() error {
			_, err := omtree.RestoreOverlayGroupSet(bytes.NewReader(reversion(set.Bytes(), 2)), nil, nil)
			return err
		},
		"Substrate.RestoreGroup": func() error {
			_, err := sub.RestoreGroup(bytes.NewReader(reversion(group.Bytes(), 2)))
			return err
		},
	}
	for name, restore := range paths {
		err := restore()
		if !errors.Is(err, omtree.ErrSnapshotVersion) {
			t.Errorf("%s: got %v, want ErrSnapshotVersion", name, err)
			continue
		}
		if errors.Is(err, omtree.ErrSnapshotCorrupt) {
			t.Errorf("%s: %v also reports corruption", name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "2") || !strings.Contains(msg, "1") {
			t.Errorf("%s: %q does not name both versions", name, msg)
		}
	}

	// The same byte changed without re-checksumming is a torn envelope.
	torn := append([]byte(nil), overlay.Bytes()...)
	torn[4] = 2
	if _, err := omtree.RestoreOverlayBytes(torn); !errors.Is(err, omtree.ErrSnapshotCorrupt) || errors.Is(err, omtree.ErrSnapshotVersion) {
		t.Errorf("unsealed version change: got %v, want ErrSnapshotCorrupt only", err)
	}
}
