package main

import "sort"

// endToEnd lists the metrics an untraced run reports, with their units;
// every workload reports all of them. BENCHMARK.json lists the same set.
var endToEnd = map[string]string{
	"setup_s":           "s",
	"epoch_ms":          "ms",
	"radius_over_bound": "ratio",
	"alloc_b_per_node":  "B",
}

// perLayer lists the metrics a traced run reports, with their units. Every
// workload reports all of them; a layer the workload never calls reads 0.
var perLayer = map[string]string{
	// Every workload.
	"self.bench_ms":        "ms",
	"self.core_ms":         "ms",
	"self.grid_ms":         "ms",
	"self.tree_ms":         "ms",
	"self.protocol_ms":     "ms",
	"self.faultplane_ms":   "ms",
	"self.snapshot_ms":     "ms",
	"self.multigroup_ms":   "ms",
	"trace.overhead_ms":    "ms",
	"runtime.gc_cycles":    "count",
	"runtime.heap_peak_mb": "MB",

	// table1_*.
	"core.phase.convert_ms":   "ms",
	"core.phase.grid_ms":      "ms",
	"core.phase.bucketing_ms": "ms",
	"core.phase.reps_ms":      "ms",
	"core.phase.wire_ms":      "ms",
	"core.phase.metrics_ms":   "ms",
	"grid.k_search_ms":        "ms",
	"grid.cell_of_ns":         "ns",
	"tree.delays_ms":          "ms",
	"core.rings":              "count",

	// session.
	"snapshot.restore_ms":               "ms",
	"snapshot.checkpoint_ms":            "ms",
	"snapshot.open_ms":                  "ms",
	"snapshot.blob_b_per_member":        "B",
	"protocol.leave_us":                 "us",
	"protocol.join_us":                  "us",
	"protocol.join_msgs":                "count",
	"protocol.join_core_hops":           "count",
	"protocol.round_ms":                 "ms",
	"protocol.round_tail_ms":            "ms",
	"protocol.round_plain_ms":           "ms",
	"protocol.round_sweep_ms":           "ms",
	"protocol.round_probes":             "count",
	"protocol.rebuild_ms":               "ms",
	"protocol.rebuild_msgs":             "count",
	"protocol.rebuild_incremental_frac": "ratio",
	"protocol.ctrl_msgs_per_member":     "count",
	"protocol.retries":                  "count",
	"protocol.timeouts":                 "count",
	"faultplane.delivered_frac":         "ratio",
	"coords.reestimated":                "count",
	"core.repairs_local":                "count",
	"core.repairs_full":                 "count",

	// groups.
	"multigroup.groups_build_ms":    "ms",
	"multigroup.groups_churn_ms":    "ms",
	"multigroup.join_ns":            "ns",
	"multigroup.build_first_ms":     "ms",
	"multigroup.build_churn_ms":     "ms",
	"multigroup.incremental_frac":   "ratio",
	"multigroup.state_b_per_member": "B",
	"multigroup.views":              "count",
	"multigroup.substrate_mb":       "MB",
}

// complete checks got against the listed metric set: every reported name
// must be listed with its unit, and every listed name must be reported,
// except that a missing per-layer metric reads 0 (fill). It returns the
// names that break the contract.
func complete(got map[string]metric, want map[string]string, fill bool) []string {
	var bad []string
	for name, m := range got {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			bad = append(bad, name)
		}
	}
	for name, unit := range want {
		if _, ok := got[name]; ok {
			continue
		}
		if !fill {
			bad = append(bad, name)
			continue
		}
		got[name] = metric{0, unit}
	}
	sort.Strings(bad)
	return bad
}
