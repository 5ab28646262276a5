package protocol

import (
	"bytes"
	"fmt"
	"testing"

	"omtree/internal/coords"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/rng"
)

func BenchmarkJoin(b *testing.B) {
	r := rng.New(1)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: SuggestK(100000), MaxOutDegree: 6})
	if err != nil {
		b.Fatal(err)
	}
	pts := r.UniformDiskN(b.N, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := o.Join(pts[i]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChurn(b *testing.B) {
	r := rng.New(2)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 6, MaxOutDegree: 6})
	if err != nil {
		b.Fatal(err)
	}
	// Warm membership.
	var live []int
	for i := 0; i < 2000; i++ {
		id, _, err := o.Join(r.UniformDisk(1))
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 && len(live) > 100 {
			pick := r.Intn(len(live))
			id := live[pick]
			live[pick] = live[len(live)-1]
			live = live[:len(live)-1]
			if _, err := o.Leave(id); err != nil {
				b.Fatal(err)
			}
		} else {
			id, _, err := o.Join(r.UniformDisk(1))
			if err != nil {
				b.Fatal(err)
			}
			live = append(live, id)
		}
	}
}

func BenchmarkRebuild(b *testing.B) {
	r := rng.New(4)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 6, MaxOutDegree: 6})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuildIncremental measures the steady-state rebuild under light
// churn: each iteration joins and removes a few members and rebuilds, so
// the retained build state rewires only the dirty cells instead of
// rebucketing all 5000 nodes.
func BenchmarkRebuildIncremental(b *testing.B) {
	r := rng.New(5)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 6, MaxOutDegree: 6})
	if err != nil {
		b.Fatal(err)
	}
	var live []int
	for i := 0; i < 5000; i++ {
		id, _, err := o.Join(r.UniformDisk(1))
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, id)
	}
	if _, err := o.Rebuild(); err != nil { // seed the retained build state
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4; j++ {
			if j%2 == 0 && len(live) > 100 {
				pick := r.Intn(len(live))
				id := live[pick]
				live[pick] = live[len(live)-1]
				live = live[:len(live)-1]
				if _, err := o.Leave(id); err != nil {
					b.Fatal(err)
				}
			} else {
				id, _, err := o.Join(r.UniformDisk(1))
				if err != nil {
					b.Fatal(err)
				}
				live = append(live, id)
			}
		}
		if _, err := o.Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSession builds a warm n-member session for the snapshot benchmarks.
func benchSession(b *testing.B, n int) *Overlay {
	b.Helper()
	r := rng.New(8)
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: SuggestK(n), MaxOutDegree: 6})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := o.Rebuild(); err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkSnapshotEncode measures checkpointing a warm session into the
// deterministic wire format (encode + checksum; no file I/O).
func BenchmarkSnapshotEncode(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			o := benchSession(b, n)
			var buf bytes.Buffer
			if err := o.WriteSnapshot(&buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := o.WriteSnapshot(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestore measures bringing a session back from a snapshot blob:
// checksum verification, decode, semantic validation, and grid rehydration.
// Compare against BenchmarkColdRebuild at the same size — restore at 100k
// must stay at least 10x faster than rebuilding from member reports
// (EXPERIMENTS.md tracks the ratio).
func BenchmarkRestore(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			o := benchSession(b, n)
			var buf bytes.Buffer
			if err := o.WriteSnapshot(&buf); err != nil {
				b.Fatal(err)
			}
			blob := buf.Bytes()
			b.SetBytes(int64(len(blob)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RestoreBytes(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdRebuild measures the no-snapshot alternative a restored
// coordinator would otherwise pay: re-admitting every member from position
// reports and rebuilding the tree from scratch.
func BenchmarkColdRebuild(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			r := rng.New(8)
			pts := r.UniformDiskN(n, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: SuggestK(n), MaxOutDegree: 6})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pts {
					if _, _, err := o.Join(p); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := o.Rebuild(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDriftRepair measures a maintenance round under coordinate drift
// for the two repair policies: local repairs the tree through dirty cells
// only when the eq. 7 certificate degrades, full rebuilds on every
// re-estimation sweep. Every round is a sweep (ReestimatePeriod 1) so each
// iteration pays re-estimation plus that policy's repair work.
func BenchmarkDriftRepair(b *testing.B) {
	for _, policy := range []RepairPolicy{RepairLocal, RepairFull} {
		for _, n := range []int{10000, 100000} {
			b.Run(fmt.Sprintf("%s/%d", policy, n), func(b *testing.B) {
				r := rng.New(6)
				o, err := New(Config{
					Source: geom.Point2{}, Scale: 1, K: SuggestK(n), MaxOutDegree: 6,
					Drift: DriftConfig{
						ReestimatePeriod:     1,
						DegradationThreshold: 1.02,
						Policy:               policy,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := o.Rebuild(); err != nil { // freeze the certificate
					b.Fatal(err)
				}
				drift, err := coords.NewDriftModel(coords.DriftConfig{
					Seed: 7, JumpRate: 0.002, JumpMean: 0.15,
					InflationPerEpoch: 0.05, Bound: 0.99,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := o.SetDrift(drift); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := o.MaintenanceRound(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMaintenanceRound times one maintenance round of a restored
// 100k-member session under jump drift with local repair at 2% loss — the
// perfbench session workload's round. "plain" is a round between
// re-estimation sweeps; "sweep" re-estimates every member and repairs.
// Each iteration restores its checkpoint and attaches a fresh fault plane
// outside the timer, so every timed round starts from the same state.
func BenchmarkMaintenanceRound(b *testing.B) {
	const n = 100000
	r := rng.New(9)
	o, err := New(Config{
		Source: geom.Point2{}, Scale: 1, K: SuggestK(n), MaxOutDegree: 6,
		Drift: DriftConfig{ReestimatePeriod: 4, DegradationThreshold: 0.5, FullRebuildCutoff: 1, Policy: RepairLocal},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := o.Rebuild(); err != nil {
		b.Fatal(err)
	}
	dm, err := coords.NewDriftModel(coords.DriftConfig{
		Seed: 9, JumpRate: 0.002, JumpMean: 0.15, InflationPerEpoch: 0.05, Bound: 0.99,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := o.SetDrift(dm); err != nil {
		b.Fatal(err)
	}
	lossy := func(o *Overlay) {
		plane, err := faultplane.New(faultplane.Scenario{Seed: 9, LossRate: 0.02})
		if err == nil {
			err = o.SetTransport(plane, DefaultFaultConfig())
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	checkpoint := func() []byte {
		var buf bytes.Buffer
		if err := o.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	// The first round after SetDrift is plain; three rounds on, the next
	// one is the sweep.
	plain := checkpoint()
	lossy(o)
	for i := 0; i < 3; i++ {
		if _, err := o.MaintenanceRound(); err != nil {
			b.Fatal(err)
		}
	}
	sweep := checkpoint()

	for _, bc := range []struct {
		name string
		blob []byte
	}{{"plain", plain}, {"sweep", sweep}} {
		b.Run(fmt.Sprintf("%s/%d", bc.name, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o, err := RestoreBytes(bc.blob)
				if err != nil {
					b.Fatal(err)
				}
				lossy(o)
				b.StartTimer()
				if _, err := o.MaintenanceRound(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
