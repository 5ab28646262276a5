package protocol

import "omtree/internal/obs"

// statsField is one SessionStats counter: its "protocol/..." name and the
// field it reads. An empty name marks a counter RegisterSessionMetrics
// does not publish.
type statsField struct {
	name string
	v    *int
}

// statsFields lists every SessionStats field once, in checkpoint order: the
// one table behind both the stats section of a snapshot payload, one varint
// per entry, and RegisterSessionMetrics. Three entries go unpublished: the
// seventh slot, which counted the messages of a retired repair round and
// is kept as a discarded value, written as 0 and dropped on read;
// IncrementalRebuilds; and DriftedNodes, which MaintenanceRound publishes
// as the protocol/drifted_nodes gauge.
func statsFields(s *SessionStats) []statsField {
	return []statsField{
		{"protocol/joins", &s.Joins},
		{"protocol/leaves", &s.Leaves},
		{"protocol/join_messages", &s.JoinMessages},
		{"protocol/leave_messages", &s.LeaveMessages},
		{"protocol/rep_elections", &s.RepElections},
		{"protocol/fallback_scans", &s.FallbackScans},
		{"", new(int)}, // retired
		{"protocol/rebuilds", &s.Rebuilds},
		{"", &s.IncrementalRebuilds},
		{"protocol/rebuild_messages", &s.RebuildMessages},
		{"protocol/abrupt_failures", &s.AbruptFailures},
		{"protocol/attempts", &s.Attempts},
		{"protocol/attempts_delivered", &s.AttemptsDelivered},
		{"protocol/retries", &s.Retries},
		{"protocol/timeouts", &s.Timeouts},
		{"protocol/messages_lost", &s.MessagesLost},
		{"protocol/duplicates_delivered", &s.DuplicatesDelivered},
		{"protocol/injected_crashes", &s.InjectedCrashes},
		{"protocol/heartbeats", &s.Heartbeats},
		{"protocol/maintenance_rounds", &s.MaintenanceRounds},
		{"protocol/maintenance_messages", &s.MaintenanceMessages},
		{"protocol/false_suspects", &s.FalseSuspects},
		{"protocol/false_confirms", &s.FalseConfirms},
		{"protocol/orphan_node_rounds", &s.OrphanNodeRounds},
		{"protocol/degraded_subtrees", &s.DegradedSubtrees},
		{"protocol/coord_elections", &s.CoordElections},
		{"protocol/island_merges", &s.IslandMerges},
		{"protocol/reconciliations", &s.Reconciliations},
		{"protocol/degraded_joins", &s.DegradedJoins},
		{"protocol/joins_queued", &s.JoinsQueued},
		{"protocol/queued_admitted", &s.QueuedAdmitted},
		{"protocol/joins_shed", &s.JoinsShed},
		{"protocol/drift_reestimates", &s.DriftReestimates},
		{"", &s.DriftedNodes}, // a gauge
		{"protocol/drift_messages", &s.DriftMessages},
		{"protocol/local_repairs", &s.LocalRepairs},
		{"protocol/full_rebuild_fallbacks", &s.FullRebuildFallbacks},
		{"protocol/rejoins", &s.Rejoins},
		{"protocol/snapshot_writes", &s.SnapshotWrites},
		{"protocol/restores", &s.Restores},
	}
}

// RegisterSessionMetrics publishes the SessionStats counters statsFields
// names under the "protocol/..." namespace of the registry. The struct
// stays the single source of truth — each field is registered as a
// counter func the registry evaluates at Snapshot() time — so the existing
// SessionStats API keeps working unchanged and the two views can never
// drift apart. Registering a fixed set of names also means a snapshot
// always carries the full protocol schema, with zeros where nothing
// happened, which keeps snapshot layouts comparable across runs. A nil
// registry is a no-op.
//
// st must outlive the registry's last Snapshot call. Snapshotting while the
// session is mutating st reads torn-but-plain int fields; sessions are
// single-goroutine, so snapshot from the driving goroutine (as the CLIs do).
func RegisterSessionMetrics(r *obs.Registry, st *SessionStats) {
	if r == nil || st == nil {
		return
	}
	for _, f := range statsFields(st) {
		if v := f.v; f.name != "" {
			r.RegisterCounterFunc(f.name, func() int64 { return int64(*v) })
		}
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
