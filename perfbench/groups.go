package main

import (
	"fmt"
	"math"
	"time"

	"omtree/internal/core"
	"omtree/internal/multigroup"
)

// The groups workload: many groups of Zipf-distributed sizes over one
// shared substrate of clustered hosts.
const (
	groupHosts    = 200_000
	groupCount    = 32
	groupLargest  = 60_000
	groupSmallest = 500
	groupChurn    = 0.01 // share of a group's members that leave, and of new joiners
	// groupKMax caps every group's ring count. Uncapped, the largest group's
	// ring count sits on a feasibility threshold of the clustered density
	// and flips between seeds, and its radius-to-bound ratio with it.
	groupKMax = 8
)

// groupSourcesAt are the groups' senders, fixed like the cluster layout.
var groupSourcesAt = [][]float64{{0, 0}, {0.3, 0.2}, {-0.25, 0.35}, {0.1, -0.4}}

// groupPlan is the fixed per-group script an epoch replays.
type groupPlan struct {
	source  []float64
	members []int // joined in this order
	leaves  []int // members that leave during churn
	joins   []int // non-members that join during churn
}

// runGroups times epochs of multi-group tree construction on a warm shared
// substrate. Every epoch creates all groups from scratch, joins and builds
// each one, then applies churn and rebuilds each one incrementally; the
// substrate's per-source view cache is warmed at set-up, so epochs repeat
// exactly.
func runGroups(h *harness) error {
	var (
		sub   *multigroup.Substrate
		plans []groupPlan
	)
	err := h.setup(func() error {
		sub, plans = nil, nil
		s, err := multigroup.NewSubstrate(clusteredDisk(newRand(h.seed, streamPoints), groupHosts))
		if !h.op(err) {
			return err
		}
		for _, src := range groupSourcesAt {
			// Warm the source's view: a group's first build on a fresh
			// source computes the substrate's polar view around it.
			g, err := s.NewGroup(multigroup.GroupConfig{Source: src, MaxOutDegree: 6, KMax: groupKMax, ID: "warm"})
			for host := 0; err == nil && host < groupHosts; host += 100 {
				err = g.Join(host)
			}
			if err == nil {
				_, _, err = g.Build()
			}
			if !h.op(err) {
				return err
			}
		}
		mr := newRand(h.seed, streamMembers)
		zipf := math.Log(groupLargest/groupSmallest) / math.Log(groupCount)
		for gi := 0; gi < groupCount; gi++ {
			size := int(math.Round(groupLargest / math.Pow(float64(gi+1), zipf)))
			p := groupPlan{source: groupSourcesAt[gi%len(groupSourcesAt)], members: sample(mr, groupHosts, size)}
			churn := int(math.Ceil(groupChurn * float64(size)))
			p.leaves = p.members[:churn]
			in := make(map[int]bool, size)
			for _, m := range p.members {
				in[m] = true
			}
			for len(p.joins) < churn {
				if host := mr.IntN(groupHosts); !in[host] {
					in[host] = true
					p.joins = append(p.joins, host)
				}
			}
			plans = append(plans, p)
		}
		sub = s
		return nil
	})
	if err != nil {
		return err
	}

	var (
		epochs, traced, untraced, allocs, gcs []float64
		buildT, churnT, joinNs                []float64
		firstT, churnBuildT, incFrac, stateB  []float64
		heapPeak                              float64
		handled                               int
	)
	for _, p := range plans {
		handled += len(p.members) + len(p.leaves) + len(p.joins)
	}
	n, err := h.loop(func(isTraced bool) error {
		groups := make([]*multigroup.GroupTree, len(plans))
		first := make([]*core.Result, len(plans))
		churned := make([]*core.Result, len(plans))
		var joinDur, firstDur, churnBuildDur time.Duration
		incremental := 0

		endEpoch := h.tr.span("bench.epoch")
		m0 := readMem()
		t0 := time.Now()
		for gi, p := range plans {
			g, err := sub.NewGroup(multigroup.GroupConfig{Source: p.source, MaxOutDegree: 6, KMax: groupKMax, ID: fmt.Sprintf("g%02d", gi)})
			if !h.op(err) {
				return err
			}
			groups[gi] = g
			end := h.tr.span("multigroup.join")
			tj := time.Now()
			for _, m := range p.members {
				if err := g.Join(m); err != nil {
					h.op(err)
					return err
				}
			}
			joinDur += time.Since(tj)
			end()
			h.attempted += len(p.members)
			end = h.tr.span("multigroup.build_first")
			tb := time.Now()
			res, _, err := g.Build()
			firstDur += time.Since(tb)
			end()
			if !h.op(err) {
				return err
			}
			first[gi] = res
		}
		t1 := time.Now()
		for gi, p := range plans {
			g := groups[gi]
			end := h.tr.span("multigroup.churn")
			for _, m := range p.leaves {
				if err := g.Leave(m); err != nil {
					h.op(err)
					return err
				}
			}
			for _, m := range p.joins {
				if err := g.Join(m); err != nil {
					h.op(err)
					return err
				}
			}
			end()
			h.attempted += len(p.leaves) + len(p.joins)
			end = h.tr.span("multigroup.build_churn")
			tb := time.Now()
			res, full, err := g.Build()
			churnBuildDur += time.Since(tb)
			end()
			if !h.op(err) {
				return err
			}
			if !full {
				incremental++
			}
			churned[gi] = res
		}
		t2 := time.Now()
		m1 := readMem()
		endEpoch()

		end := h.tr.span("bench.check")
		worst := 0.0
		var state int64
		members := 0
		for gi, g := range groups {
			for _, res := range []*core.Result{first[gi], churned[gi]} {
				h.check(res.Radius <= res.Bound, "group %s: radius %v exceeds the eq. 7 bound %v", g.ID(), res.Radius, res.Bound)
				h.check(res.Tree.N() == len(plans[gi].members)+1, "group %s: tree has %d nodes, want %d",
					g.ID(), res.Tree.N(), len(plans[gi].members)+1)
				worst = math.Max(worst, res.Radius/res.Bound)
			}
			state += g.MemoryBytes()
			members += g.Size()
		}
		h.same("radius_over_bound", worst)
		end()

		epochs = append(epochs, ms(t2.Sub(t0)))
		allocs = append(allocs, float64(m1.alloc-m0.alloc)/float64(handled))
		if h.tr == nil {
			return nil
		}
		if !isTraced {
			untraced = append(untraced, ms(t2.Sub(t0)))
			return nil
		}
		traced = append(traced, ms(t2.Sub(t0)))
		gcs = append(gcs, float64(m1.gcs-m0.gcs))
		heapPeak = math.Max(heapPeak, float64(m1.heap)/1e6)
		buildT = append(buildT, ms(t1.Sub(t0)))
		churnT = append(churnT, ms(t2.Sub(t1)))
		joins := 0
		for _, p := range plans {
			joins += len(p.members)
		}
		joinNs = append(joinNs, float64(joinDur)/float64(joins))
		firstT = append(firstT, ms(firstDur))
		churnBuildT = append(churnBuildT, ms(churnBuildDur))
		incFrac = append(incFrac, float64(incremental)/float64(2*len(plans)))
		stateB = append(stateB, float64(state)/float64(members))
		return nil
	})
	if err != nil {
		return err
	}
	h.info = append(h.info, fmt.Sprintf("%d epochs of %d groups (%d to %d members) from %d sources over %d clustered hosts",
		n, groupCount, len(plans[len(plans)-1].members), len(plans[0].members), len(groupSourcesAt), groupHosts))

	h.timing(h.e2e, "epoch_ms", epochs, "ms")
	h.e2e["radius_over_bound"] = metric{h.fixed["radius_over_bound"], "ratio"}
	h.timing(h.e2e, "alloc_b_per_node", allocs, "B")
	if h.tr == nil {
		return nil
	}
	h.timing(h.layer, "multigroup.groups_build_ms", buildT, "ms")
	h.timing(h.layer, "multigroup.groups_churn_ms", churnT, "ms")
	h.timing(h.layer, "multigroup.join_ns", joinNs, "ns")
	h.timing(h.layer, "multigroup.build_first_ms", firstT, "ms")
	h.timing(h.layer, "multigroup.build_churn_ms", churnBuildT, "ms")
	h.layer["multigroup.incremental_frac"] = metric{median(incFrac), "ratio"}
	h.layer["multigroup.state_b_per_member"] = metric{median(stateB), "B"}
	h.layer["multigroup.views"] = metric{float64(sub.Views()), "count"}
	h.layer["multigroup.substrate_mb"] = metric{float64(sub.MemoryBytes()) / 1e6, "MB"}
	h.layer["runtime.gc_cycles"] = metric{median(gcs), "count"}
	h.layer["runtime.heap_peak_mb"] = metric{heapPeak, "MB"}
	h.overhead(traced, untraced)
	return nil
}
