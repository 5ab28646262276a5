package protocol

import "omtree/internal/obs"

// RegisterSessionMetrics publishes every SessionStats field under the
// "protocol/..." namespace of the registry. The struct stays the single
// source of truth — each field is registered as a counter func the registry
// evaluates at Snapshot() time — so the existing SessionStats API keeps
// working unchanged and the two views can never drift apart. Registering a
// fixed set of names also means a snapshot always carries the full protocol
// schema, with zeros where nothing happened, which keeps snapshot layouts
// comparable across runs. A nil registry is a no-op.
//
// st must outlive the registry's last Snapshot call. Snapshotting while the
// session is mutating st reads torn-but-plain int fields; sessions are
// single-goroutine, so snapshot from the driving goroutine (as the CLIs do).
func RegisterSessionMetrics(r *obs.Registry, st *SessionStats) {
	if r == nil || st == nil {
		return
	}
	fields := []struct {
		name string
		v    *int
	}{
		{"protocol/joins", &st.Joins},
		{"protocol/leaves", &st.Leaves},
		{"protocol/join_messages", &st.JoinMessages},
		{"protocol/leave_messages", &st.LeaveMessages},
		{"protocol/rep_elections", &st.RepElections},
		{"protocol/fallback_scans", &st.FallbackScans},
		{"protocol/rebuilds", &st.Rebuilds},
		{"protocol/rebuild_messages", &st.RebuildMessages},
		{"protocol/abrupt_failures", &st.AbruptFailures},
		{"protocol/attempts", &st.Attempts},
		{"protocol/attempts_delivered", &st.AttemptsDelivered},
		{"protocol/retries", &st.Retries},
		{"protocol/timeouts", &st.Timeouts},
		{"protocol/messages_lost", &st.MessagesLost},
		{"protocol/duplicates_delivered", &st.DuplicatesDelivered},
		{"protocol/injected_crashes", &st.InjectedCrashes},
		{"protocol/heartbeats", &st.Heartbeats},
		{"protocol/maintenance_rounds", &st.MaintenanceRounds},
		{"protocol/maintenance_messages", &st.MaintenanceMessages},
		{"protocol/false_suspects", &st.FalseSuspects},
		{"protocol/false_confirms", &st.FalseConfirms},
		{"protocol/orphan_node_rounds", &st.OrphanNodeRounds},
		{"protocol/degraded_subtrees", &st.DegradedSubtrees},
		{"protocol/coord_elections", &st.CoordElections},
		{"protocol/island_merges", &st.IslandMerges},
		{"protocol/reconciliations", &st.Reconciliations},
		{"protocol/degraded_joins", &st.DegradedJoins},
		{"protocol/joins_queued", &st.JoinsQueued},
		{"protocol/queued_admitted", &st.QueuedAdmitted},
		{"protocol/joins_shed", &st.JoinsShed},
		{"protocol/drift_reestimates", &st.DriftReestimates},
		{"protocol/drift_messages", &st.DriftMessages},
		{"protocol/local_repairs", &st.LocalRepairs},
		{"protocol/full_rebuild_fallbacks", &st.FullRebuildFallbacks},
		{"protocol/rejoins", &st.Rejoins},
		{"protocol/snapshot_writes", &st.SnapshotWrites},
		{"protocol/restores", &st.Restores},
	}
	for _, f := range fields {
		v := f.v
		r.RegisterCounterFunc(f.name, func() int64 { return int64(*v) })
	}
}

// Observe attaches a metrics registry to the session: Stats is published
// under "protocol/..." and subsequent Rebuild calls forward the registry to
// the centralized build, so rebuild phases land as "build/..." spans in the
// same snapshot. A nil registry detaches nothing and costs nothing.
func (o *Overlay) Observe(r *obs.Registry) {
	o.reg = r
	RegisterSessionMetrics(r, &o.Stats)
}
