package bisect

import (
	"fmt"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/rng"
)

// benchSink records parents without checks, so the benchmark times the
// recursion and not a tree builder's bookkeeping.
type benchSink struct{ parents []int32 }

func (s *benchSink) MustAttach(child, parent int) { s.parents[child] = int32(parent) }

// BenchmarkConnectInCell times the in-cell Bisection that a Polar_Grid build
// runs in every grid cell: Connect4 (the natural variant) and Connect2 (the
// binary one) over cells of m members drawn at random from a 200,000-point
// table, so that member coordinates lie scattered through memory as in a
// real build. Successive iterations take successive cells, as a build does,
// so the branch predictor cannot learn one cell's split outcomes. The source
// sits at the centre of the cell's inner arc, where the cell's
// representative is elected. It reports ns per member.
func BenchmarkConnectInCell(b *testing.B) {
	const table = 200_000
	seg := geom.RingSegment{RMin: 0.5, RMax: 1, ThetaMin: 1, ThetaMax: 1.5}
	r := rng.New(3)
	pts := make([]geom.Polar, table)
	pts[0] = geom.Polar{R: seg.RMin, Theta: seg.MidTheta()}
	for i := 1; i < table; i++ {
		pts[i] = geom.Polar{
			R:     seg.RMin + r.Float64()*(seg.RMax-seg.RMin),
			Theta: seg.ThetaMin + r.Float64()*seg.Angle(),
		}
	}
	ctx := &Ctx2{B: &benchSink{parents: make([]int32, table)}, Pts: pts}
	perm := r.Perm(table - 1)
	for _, variant := range []struct {
		name    string
		connect func(idx []int32, src int32, seg geom.RingSegment)
	}{{"Connect4", ctx.Connect4}, {"Connect2", ctx.Connect2}} {
		for _, m := range []int{16, 128, 2048} {
			cells := len(perm) / m
			members := make([]int32, cells*m)
			for i := range members {
				members[i] = int32(perm[i] + 1)
			}
			scratch := make([]int32, m)
			b.Run(fmt.Sprintf("%s/m=%d", variant.name, m), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c := i % cells
					copy(scratch, members[c*m:(c+1)*m])
					variant.connect(scratch, 0, seg)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/point")
			})
		}
	}
}
