package core

import (
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// move relocates the i-th present slot and mirrors it in the harness map,
// so check() keeps comparing against a from-scratch Build2.
func (h *stateHarness) move(i int, p geom.Point2) {
	slot := h.slots[i]
	h.bs.Move(slot, p)
	h.pos[slot] = p
}

// Rebuilds after Move sequences must stay byte-identical to from-scratch
// builds over the moved positions, across interior wiggles, cross-cell
// hops, scale-growing escapes, and scale-shrinking retreats of the
// outermost member.
func TestBuildStateMoveMatchesFromScratch(t *testing.T) {
	for _, deg := range []int{3, 5} {
		r := rng.New(uint64(1700 + deg))
		source := geom.Point2{X: -2, Y: 1}
		h := newStateHarness(t, source, WithMaxOutDegree(deg))
		for i := 0; i < 250; i++ {
			h.add(source.Add(r.UniformDisk(1)))
		}
		h.check()
		for i := 0; i < 300; i++ {
			j := r.Intn(len(h.slots))
			old := h.pos[h.slots[j]]
			var p geom.Point2
			switch r.Intn(10) {
			case 0:
				p = source.Add(r.UniformDisk(1).Scale(1.4)) // may grow the scale
			case 1:
				p = source.Add(r.UniformDisk(0.2)) // long hop inward
			default:
				p = old.Add(r.UniformDisk(0.05)) // local wiggle
			}
			h.move(j, p)
			if i%5 == 0 {
				h.check()
			}
		}
		h.check()
		if h.incs < 10 {
			t.Fatalf("deg %d: only %d incremental rebuilds across the move workload", deg, h.incs)
		}
	}
}

func TestBuildStateMoveNoOpKeepsCache(t *testing.T) {
	r := rng.New(21)
	h := newStateHarness(t, geom.Point2{})
	for i := 0; i < 50; i++ {
		h.add(r.UniformDisk(1))
	}
	first, _, err := h.bs.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	h.bs.Move(h.slots[3], h.pos[h.slots[3]]) // same position
	again, full, err := h.bs.Rebuild()
	if err != nil || full || again != first {
		t.Fatalf("no-op move invalidated the cache: full=%v err=%v same=%v", full, err, again == first)
	}
}

func TestBuildStateMovePanics(t *testing.T) {
	h := newStateHarness(t, geom.Point2{})
	h.add(geom.Point2{X: 1})
	for _, slot := range []int{0, 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Move(%d) on a non-present slot must panic", slot)
				}
			}()
			h.bs.Move(slot, geom.Point2{})
		}()
	}
}

// TestCertificate: the certificate is zero before any build, matches the
// build's result after one, stays frozen while positions drift without a
// rebuild, and re-freezes over the drifted positions at the next rebuild.
func TestCertificate(t *testing.T) {
	r := rng.New(33)
	h := newStateHarness(t, geom.Point2{})
	if c := h.bs.Certificate(); c != (Certificate{}) {
		t.Fatalf("certificate before any build = %+v", c)
	}
	for i := 0; i < 120; i++ {
		h.add(r.UniformDisk(1))
	}
	res, _, err := h.bs.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	cert := h.bs.Certificate()
	if cert.Bound != res.Bound || cert.Radius != res.Radius {
		t.Fatalf("certificate %+v does not match result bound %v radius %v", cert, res.Bound, res.Radius)
	}

	// Drift every position outward without rewiring: the certificate's
	// numbers stay frozen.
	for _, slot := range append([]int(nil), h.slots...) {
		i := indexOfSlot(h.slots, slot)
		h.move(i, h.pos[slot].Add(h.pos[slot].Scale(0.3)))
	}
	if c := h.bs.Certificate(); c != cert {
		t.Fatalf("certificate changed without a rebuild: %+v vs %+v", c, cert)
	}

	// A rebuild re-freezes the certificate over the drifted positions.
	res2, _, err := h.bs.Rebuild()
	if err != nil {
		t.Fatal(err)
	}
	if c := h.bs.Certificate(); c.Radius != res2.Radius || c.Bound != res2.Bound {
		t.Fatalf("post-rebuild certificate %+v vs result %+v", c, res2)
	}
}

func TestDirtyFractionAndForceFull(t *testing.T) {
	r := rng.New(8)
	h := newStateHarness(t, geom.Point2{})
	if h.bs.DirtyFraction() != 1 {
		t.Fatal("unbuilt state must report dirty fraction 1")
	}
	for i := 0; i < 200; i++ {
		h.add(r.UniformDisk(1))
	}
	if _, _, err := h.bs.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := h.bs.DirtyFraction(); got != 0 {
		t.Fatalf("dirty fraction right after rebuild = %v, want 0", got)
	}
	h.move(0, h.pos[h.slots[0]].Add(geom.Point2{X: 0.01}))
	got := h.bs.DirtyFraction()
	if got <= 0 || got > 0.5 {
		t.Fatalf("dirty fraction after one local move = %v, want small and positive", got)
	}
	h.bs.ForceFull()
	if h.bs.DirtyFraction() != 1 {
		t.Fatal("ForceFull must report dirty fraction 1")
	}
	res, full, err := h.bs.Rebuild()
	if err != nil || !full || res == nil {
		t.Fatalf("rebuild after ForceFull: full=%v err=%v", full, err)
	}
	h.check() // and it still matches the from-scratch build
}

func indexOfSlot(slots []int, slot int) int {
	for i, s := range slots {
		if s == slot {
			return i
		}
	}
	return -1
}
