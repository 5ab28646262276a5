package multigroup_test

import (
	"testing"

	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/multigroup"
	"omtree/internal/rng"
)

// BenchmarkMultiGroupBuild measures the cost of standing up G group trees
// over one host population, the number the shared substrate exists to
// improve:
//
//   - substrate: the one-time cost a deployment pays once — the coordinate
//     axes over the full population.
//   - shared: G groups created on an existing substrate: join through the
//     bitset, build via the cached per-source polar views.
//   - cloned: what a naive deployment does instead — every group gathers
//     its own member coordinates and runs a from-scratch Build2, paying
//     the geometry transform and k-search setup G times with nothing
//     amortized.
//   - sparse: 16 groups of 500 members on a 50,000-host substrate, built
//     like shared. A group's cost should follow its members, not the
//     substrate; shared cannot show that, because its groups cover 75% of
//     their substrate.
//
// shared and cloned produce identical trees (the differential suite locks
// that down). shared trades some per-build time (per-cell member lists
// kept for incremental churn instead of one dense member array) for the
// memory amortization and incremental churn the substrate design buys;
// this benchmark pins that overhead so it cannot silently grow.
func BenchmarkMultiGroupBuild(b *testing.B) {
	const (
		hosts     = 2000
		groups    = 16
		groupSize = 1500
		sources   = 4
	)
	r := rng.New(42)
	pts := r.UniformDiskN(hosts, 1)
	srcPool := make([]geom.Point2, sources)
	for i := range srcPool {
		srcPool[i] = r.UniformDisk(0.25)
	}
	// Sliding membership windows, as in the scale harness: heavy pairwise
	// overlap without equal memberships.
	memberOf := func(gi, j int) int { return (gi*31 + j) % hosts }

	b.Run("substrate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multigroup.NewSubstrate(pts); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("shared", func(b *testing.B) {
		sub, err := multigroup.NewSubstrate(pts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for gi := 0; gi < groups; gi++ {
				src := srcPool[gi%sources]
				g, err := sub.NewGroup(multigroup.GroupConfig{
					Source: []float64{src.X, src.Y}, MaxOutDegree: 6,
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < groupSize; j++ {
					if err := g.Join(memberOf(gi, j)); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := g.Build(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("sparse", func(b *testing.B) {
		const (
			sparseHosts = 50_000
			sparseSize  = 500
		)
		r := rng.New(43)
		sub, err := multigroup.NewSubstrate(r.UniformDiskN(sparseHosts, 1))
		if err != nil {
			b.Fatal(err)
		}
		cfg := func(gi int) multigroup.GroupConfig {
			src := srcPool[gi%sources]
			return multigroup.GroupConfig{Source: []float64{src.X, src.Y}, MaxOutDegree: 6}
		}
		// Warm every source's polar view, which the substrate computes once
		// per source on first use.
		for gi := 0; gi < sources; gi++ {
			if _, err := sub.NewGroup(cfg(gi)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for gi := 0; gi < groups; gi++ {
				g, err := sub.NewGroup(cfg(gi))
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < sparseSize; j++ {
					if err := g.Join((gi*977 + j*97) % sparseHosts); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := g.Build(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("cloned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for gi := 0; gi < groups; gi++ {
				members := make([]geom.Point2, groupSize)
				for j := 0; j < groupSize; j++ {
					members[j] = pts[memberOf(gi, j)]
				}
				if _, err := core.Build2(srcPool[gi%sources], members,
					core.WithMaxOutDegree(6)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkGroupRebuild measures one large group's rebuilds: a
// 60,000-member group on a 200,000-host clustered substrate (a fifth of
// the hosts uniform on the disk, the rest in four Gaussian clusters),
// capped at 8 rings like the largest group of perfbench's groups workload.
// At this size a rebuild runs on the build pipeline's worker pool, which
// BenchmarkMultiGroupBuild's 1,500-member groups stay below.
//
//   - full: the group's first build, over members joined untimed.
//   - churn: 1% of the members leave and as many hosts join, then the
//     group rebuilds incrementally. Each iteration starts from the same
//     built membership: the churn is undone and rebuilt untimed.
func BenchmarkGroupRebuild(b *testing.B) {
	const (
		hosts   = 200_000
		members = 60_000
		churn   = members / 100
		stride  = 7919 // prime to hosts: j*stride % hosts is distinct for j < hosts
	)
	r := rng.New(44)
	pts := append(r.UniformDiskN(hosts/5, 1), r.ClusteredDiskN(hosts-hosts/5, 1, []rng.Cluster{
		{Center: geom.Point2{X: 0.1, Y: 0.05}, Sigma: 0.12, Weight: 3},
		{Center: geom.Point2{X: -0.45, Y: 0.3}, Sigma: 0.06, Weight: 1},
		{Center: geom.Point2{X: 0.5, Y: -0.35}, Sigma: 0.05, Weight: 1},
		{Center: geom.Point2{X: -0.3, Y: -0.5}, Sigma: 0.15, Weight: 2},
	})...)
	sub, err := multigroup.NewSubstrate(pts)
	if err != nil {
		b.Fatal(err)
	}
	host := func(j int) int { return j * stride % hosts }
	newGroup := func(b *testing.B) *multigroup.GroupTree {
		g, err := sub.NewGroup(multigroup.GroupConfig{Source: []float64{0, 0}, MaxOutDegree: 6, KMax: 8})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < members; j++ {
			if err := g.Join(host(j)); err != nil {
				b.Fatal(err)
			}
		}
		return g
	}
	build := func(b *testing.B, g *multigroup.GroupTree) {
		if _, _, err := g.Build(); err != nil {
			b.Fatal(err)
		}
	}
	newGroup(b) // warm the source's polar view

	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := newGroup(b)
			b.StartTimer()
			build(b, g)
		}
	})

	b.Run("churn", func(b *testing.B) {
		g := newGroup(b)
		build(b, g)
		step := func(leave, join func(int) error) {
			for j := 0; j < churn; j++ {
				if err := leave(host(j)); err != nil {
					b.Fatal(err)
				}
				if err := join(host(members + j)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(g.Leave, g.Join)
			build(b, g)
			b.StopTimer()
			step(g.Join, g.Leave)
			build(b, g)
			b.StartTimer()
		}
	})
}
