package omtree_test

// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per table/figure; each reports the figure's quantities as custom metrics
// (delay, bound, core delay, rings) on top of the usual ns/op, so a single
//
//	go test -bench=. -benchmem
//
// run reproduces the shape of Table I and Figures 4-8. Default sizes stop
// at 100k to keep the run in minutes; set OMT_BENCH_FULL=1 to extend to the
// paper's 1M and 5M points.

import (
	"fmt"
	"os"
	"testing"

	"omtree"
	"omtree/internal/geom"
	"omtree/internal/grid"
)

var benchSizes = func() []int {
	sizes := []int{100, 1000, 10000, 100000}
	if os.Getenv("OMT_BENCH_FULL") != "" {
		sizes = append(sizes, 1000000, 5000000)
	}
	return sizes
}()

// BenchmarkTable1 regenerates Table I: Polar_Grid builds on the uniform
// unit disk at out-degrees 6 and 2 across problem sizes. ns/op is the
// paper's "CPU Sec" column; the reported metrics are the other columns.
func BenchmarkTable1(b *testing.B) {
	for _, n := range benchSizes {
		for _, deg := range []int{6, 2} {
			b.Run(fmt.Sprintf("n=%d/deg=%d", n, deg), func(b *testing.B) {
				recv := omtree.NewRand(uint64(n)).UniformDiskN(n, 1)
				var last *omtree.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := omtree.Build(omtree.Point2{}, recv, omtree.WithMaxOutDegree(deg))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.StopTimer()
				b.ReportMetric(float64(last.K), "rings")
				b.ReportMetric(last.CoreDelay, "core")
				b.ReportMetric(last.Radius, "delay")
				b.ReportMetric(last.Bound, "bound")
			})
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: maximum delay vs the upper bound (7)
// and the core delay for the out-degree-6 variant.
func BenchmarkFig4(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			recv := omtree.NewRand(uint64(n)+4).UniformDiskN(n, 1)
			var last *omtree.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := omtree.Build(omtree.Point2{}, recv)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.StopTimer()
			b.ReportMetric(last.Radius, "delay")
			b.ReportMetric(last.Bound, "bound")
			b.ReportMetric(last.CoreDelay, "core")
		})
	}
}

// BenchmarkFig5 regenerates Figure 5: the degree-2 vs degree-6 delay
// comparison; the reported metric is each variant's delay plus the
// overhead ratio the paper highlights (~2x).
func BenchmarkFig5(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			recv := omtree.NewRand(uint64(n)+5).UniformDiskN(n, 1)
			var d6, d2 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res6, err := omtree.Build(omtree.Point2{}, recv)
				if err != nil {
					b.Fatal(err)
				}
				res2, err := omtree.Build(omtree.Point2{}, recv, omtree.WithMaxOutDegree(2))
				if err != nil {
					b.Fatal(err)
				}
				d6, d2 = res6.Radius, res2.Radius
			}
			b.StopTimer()
			b.ReportMetric(d6, "delay6")
			b.ReportMetric(d2, "delay2")
			if d6 > 1 {
				b.ReportMetric((d2-1)/(d6-1), "overhead-ratio")
			}
		})
	}
}

// BenchmarkFig6 regenerates Figure 6: the ring count k chosen by the grid
// versus n (the metric; ns/op measures the analytic k search the builds
// run).
func BenchmarkFig6(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			recv := omtree.NewRand(uint64(n)+6).UniformDiskN(n, 1)
			polars := make([]geom.Polar, len(recv))
			for i, p := range recv {
				polars[i] = p.ToPolar()
			}
			k := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k = grid.MaxFeasibleKAnalytic(polars, 1, grid.DefaultKMax(n))
			}
			b.StopTimer()
			b.ReportMetric(float64(k), "rings")
		})
	}
}

// BenchmarkFig7 regenerates Figure 7: end-to-end build time versus n
// (ns/op is the figure; near-linear growth is the claim).
func BenchmarkFig7(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			recv := omtree.NewRand(uint64(n)+7).UniformDiskN(n, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := omtree.Build(omtree.Point2{}, recv); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n), "nodes")
		})
	}
}

// BenchmarkFig8 regenerates Figure 8: the 3-D unit ball at out-degrees 10
// and 2, delays converging to 1 but above the 2-D values at equal n.
func BenchmarkFig8(b *testing.B) {
	for _, n := range benchSizes {
		for _, deg := range []int{10, 2} {
			b.Run(fmt.Sprintf("n=%d/deg=%d", n, deg), func(b *testing.B) {
				recv := omtree.NewRand(uint64(n)+8).UniformBall3N(n, 1)
				var last *omtree.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := omtree.Build3D(omtree.Point3{}, recv, omtree.WithMaxOutDegree(deg))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.StopTimer()
				b.ReportMetric(float64(last.K), "rings")
				b.ReportMetric(last.Radius, "delay")
			})
		}
	}
}

// BenchmarkBuildParallel measures the parallel build pipeline across worker
// counts (ISSUE: n in {10k, 100k, 1M} x workers {1, 4, 8}; 1M rides behind
// OMT_BENCH_FULL with the other large sizes). Speedup is bounded by the
// host's core count — on a single-CPU container all worker counts tie, which
// is itself the determinism claim in wall-clock form.
func BenchmarkBuildParallel(b *testing.B) {
	sizes := []int{10000, 100000}
	if os.Getenv("OMT_BENCH_FULL") != "" {
		sizes = append(sizes, 1000000)
	}
	for _, n := range sizes {
		recv := omtree.NewRand(uint64(n)+10).UniformDiskN(n, 1)
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := omtree.Build(omtree.Point2{}, recv,
						omtree.WithParallelism(workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBisection measures the stand-alone constant-factor algorithm
// (§II) — the subroutine's own cost and certified bound.
func BenchmarkBisection(b *testing.B) {
	for _, n := range benchSizes {
		for _, deg := range []int{4, 2} {
			b.Run(fmt.Sprintf("n=%d/deg=%d", n, deg), func(b *testing.B) {
				pts := omtree.NewRand(uint64(n)+9).UniformDiskN(n, 1)
				var bound float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, rep, err := omtree.BuildBisection(pts, 0, deg)
					if err != nil {
						b.Fatal(err)
					}
					bound = rep.PathBound
				}
				b.StopTimer()
				b.ReportMetric(bound, "path-bound")
			})
		}
	}
}

// BenchmarkBaselines compares construction cost of Polar_Grid against the
// O(n^2) heuristics at a size where both run comfortably — the scalability
// argument of the paper in bench form.
func BenchmarkBaselines(b *testing.B) {
	const n = 2000
	recv := omtree.NewRand(77).UniformDiskN(n, 1)
	pts := append([]omtree.Point2{{}}, recv...)
	dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }

	b.Run("polargrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := omtree.Build(omtree.Point2{}, recv); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := omtree.GreedyClosest(len(pts), 0, dist, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bandwidth-latency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := omtree.BandwidthLatency(len(pts), 0, dist, 6, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("balanced-kary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := omtree.BalancedKary(len(pts), 0, dist, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
}
