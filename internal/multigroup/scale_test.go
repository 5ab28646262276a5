package multigroup_test

import (
	"runtime"
	"testing"

	"omtree/internal/geom"
	"omtree/internal/multigroup"
	"omtree/internal/obs"
	"omtree/internal/rng"
)

// TestThousandGroupsResident is the tentpole's scale target: 1,000 groups
// of 10k members each, resident simultaneously over one 12k-host substrate
// whose geometry is built once (8 distinct sources -> 8 cached polar
// views, not 1,000). Every group's build must meet its own eq. 7 bound; a
// sample of groups gets the full from-scratch invariant audit.
func TestThousandGroupsResident(t *testing.T) {
	if testing.Short() {
		t.Skip("large resident-set harness; skipped with -short")
	}
	if raceEnabled {
		t.Skip("large resident-set harness; covered by the smaller race hammer under -race")
	}
	const (
		hosts     = 12000
		groups    = 1000
		groupSize = 10000
		sources   = 8
	)
	r := rng.New(20260808)
	reg := obs.New()
	reg.SetLabelCap(16) // 1,000 group ids must collapse, not explode the registry
	sub, err := multigroup.NewSubstrate(r.UniformDiskN(hosts, 1), multigroup.WithObserver(reg))
	if err != nil {
		t.Fatal(err)
	}
	srcPool := make([]geom.Point2, sources)
	for i := range srcPool {
		srcPool[i] = r.UniformDisk(0.2)
	}

	gs := make([]*multigroup.GroupTree, groups)
	srcOf := make([]geom.Point2, groups)
	var groupMem int64
	for i := 0; i < groups; i++ {
		src := srcPool[i%sources]
		srcOf[i] = src
		g, err := sub.NewGroup(multigroup.GroupConfig{Source: []float64{src.X, src.Y}})
		if err != nil {
			t.Fatal(err)
		}
		// Sliding membership window: every pair of groups overlaps heavily
		// (the multi-tenant case) while no two memberships are equal.
		start := (i * 7) % (hosts - groupSize)
		for h := start; h < start+groupSize; h++ {
			if err := g.Join(h); err != nil {
				t.Fatal(err)
			}
		}
		res, full, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !full {
			t.Fatalf("group %d: first build must be full", i)
		}
		if res.Bound <= 0 || res.Radius > res.Bound*(1+boundSlack) {
			t.Fatalf("group %d: radius %v vs bound %v", i, res.Radius, res.Bound)
		}
		if i%100 == 0 {
			auditGroup(t, sub, g, src, res)
		}
		gs[i] = g
		groupMem += g.MemoryBytes()
	}

	// The substrate was built once and shared: one polar view per distinct
	// source, not per group.
	if got := sub.Views(); got != sources {
		t.Errorf("view cache has %d entries, want %d", got, sources)
	}
	subMem := sub.MemoryBytes()
	reg.Gauge("multigroup/substrate_bytes").Set(float64(subMem))
	reg.Gauge("multigroup/groups_bytes").Set(float64(groupMem))
	// Shared-substrate accounting: G resident groups must not cost G copies
	// of the substrate. With 8 views over 12k hosts the substrate side
	// stays a tiny fraction of the per-group state.
	if subMem > groupMem/10 {
		t.Errorf("substrate %d B vs groups %d B: sharing failed to amortize", subMem, groupMem)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("resident: %d groups x %d members, substrate %.1f MB, groups %.1f MB (est), heap %.1f MB",
		groups, groupSize, float64(subMem)/1e6, float64(groupMem)/1e6, float64(ms.HeapAlloc)/1e6)

	// Incremental churn still works per group with everything resident.
	for _, i := range []int{0, groups / 2, groups - 1} {
		g := gs[i]
		m := g.Members()
		if err := g.Leave(m[len(m)/2]); err != nil {
			t.Fatal(err)
		}
		res, _, err := g.Build()
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound <= 0 || res.Radius > res.Bound*(1+boundSlack) {
			t.Fatalf("group %d after churn: radius %v vs bound %v", i, res.Radius, res.Bound)
		}
	}

	// The labeled-metrics cardinality guard held: at most cap+1 series per
	// labeled family despite 1,000 distinct group ids.
	var rebuildSeries int
	for _, c := range reg.Snapshot().Counters {
		if len(c.Name) > 24 && c.Name[:24] == "multigroup/rebuilds_full" {
			rebuildSeries++
		}
	}
	if rebuildSeries > 17 {
		t.Errorf("%d rebuild series; the label cap (16+other) did not hold", rebuildSeries)
	}
	runtime.KeepAlive(gs)
}

// TestGroupSizedByMembers pins what a group costs on a large substrate: the
// same 500-member group on a 2,000-host and on a 200,000-host substrate
// (the first 2,000 hosts shared, so both build the same tree). The larger
// substrate may add, per NewGroup + Join + Build and to the group's
// MemoryBytes, only what scales with its slot count by design: the group's
// and the build state's membership bitsets and the state's rank index,
// under 1 byte per 2 slots.
func TestGroupSizedByMembers(t *testing.T) {
	const (
		small, large = 2_000, 200_000
		members      = 500
	)
	r := rng.New(61)
	hosts := r.UniformDiskN(large, 1)
	source := []float64{0.1, 0.05}
	// cost returns the least bytes allocated over a few NewGroup + Join +
	// Build runs, and the built group's MemoryBytes.
	cost := func(sub *multigroup.Substrate) (alloc uint64, mem int64) {
		t.Helper()
		var before, after runtime.MemStats
		for run := 0; run < 4; run++ {
			runtime.ReadMemStats(&before)
			g, err := sub.NewGroup(multigroup.GroupConfig{Source: source, MaxOutDegree: 6, ID: "sized"})
			if err != nil {
				t.Fatal(err)
			}
			for h := 0; h < small; h += small / members {
				if err := g.Join(h); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := g.Build(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			// The first run computes the source's polar view; later runs
			// reuse it, like every group after the first on a warm
			// substrate.
			if a := after.TotalAlloc - before.TotalAlloc; run > 0 && (alloc == 0 || a < alloc) {
				alloc = a
			}
			mem = g.MemoryBytes()
		}
		return alloc, mem
	}
	subSmall, err := multigroup.NewSubstrate(hosts[:small])
	if err != nil {
		t.Fatal(err)
	}
	subLarge, err := multigroup.NewSubstrate(hosts)
	if err != nil {
		t.Fatal(err)
	}
	allocSmall, memSmall := cost(subSmall)
	allocLarge, memLarge := cost(subLarge)
	budget := (large - small) / 2
	t.Logf("allocated %d B on %d hosts, %d B on %d; MemoryBytes %d vs %d; budget %d B",
		allocSmall, small, allocLarge, large, memSmall, memLarge, budget)
	if extra := int64(allocLarge) - int64(allocSmall); extra > int64(budget) {
		t.Errorf("the larger substrate adds %d B of allocation per group, over the %d B its membership bits and rank index need", extra, budget)
	}
	if extra := memLarge - memSmall; extra > int64(budget) {
		t.Errorf("the larger substrate adds %d B to a group's MemoryBytes, over the %d B its membership bits and rank index need", extra, budget)
	}
}

// TestSubstrateSizedByCoordinates pins what NewSubstrate allocates: the two
// axis columns that groups read (16 B per host) and little more. An index
// over the hosts has to bring a caller that reads it before it can add
// bytes here again.
func TestSubstrateSizedByCoordinates(t *testing.T) {
	const (
		hosts   = 200_000
		perHost = 24
	)
	pts := rng.New(62).UniformDiskN(hosts, 1)
	var least uint64
	var before, after runtime.MemStats
	for run := 0; run < 3; run++ {
		runtime.ReadMemStats(&before)
		sub, err := multigroup.NewSubstrate(pts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(sub)
		if a := after.TotalAlloc - before.TotalAlloc; run == 0 || a < least {
			least = a
		}
	}
	t.Logf("NewSubstrate allocated %d B over %d hosts (%.1f B/host)", least, hosts, float64(least)/hosts)
	if least > perHost*hosts {
		t.Errorf("NewSubstrate allocated %d B over %d hosts, over the %d B/host budget", least, hosts, perHost)
	}
}
