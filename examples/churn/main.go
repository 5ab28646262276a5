// Churn scenario: a live session where members join and leave continuously
// — the decentralized protocol the paper names as future work. The example
// tracks delay quality and control-message cost through a flash crowd, a
// departure wave, and a coordinated rebuild.
package main

import (
	"errors"
	"fmt"
	"log"

	"omtree"
)

func main() {
	const expected = 3000
	source := omtree.Point2{}
	overlay, err := omtree.NewOverlay(omtree.OverlayConfig{
		Source:       source,
		Scale:        1,
		K:            omtree.SuggestOverlayK(expected),
		MaxOutDegree: 6,
		// Tuning for the kinetic epilogue below: re-estimate coordinates
		// every 3 maintenance rounds and repair locally once drift degrades
		// the certified radius by 5%. Inert until SetDrift attaches a model.
		Drift: omtree.OverlayDriftConfig{
			ReestimatePeriod:     3,
			DegradationThreshold: 1.05,
			Policy:               omtree.OverlayRepairLocal,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Record the session's causal timeline: every join, retry, fault-plane
	// verdict, heartbeat, and repair lands on one bounded ring. Tracing
	// never changes the session — it only watches it.
	rec := omtree.NewTraceRecorder(1 << 18)
	overlay.Trace(rec)
	r := omtree.NewRand(777)

	report := func(phase string) {
		radius, err := overlay.Radius()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s members=%5d radius=%.3f\n", phase, overlay.N()-1, radius)
	}

	// Flash crowd: 3000 members join one by one; each join costs O(log n)
	// control messages (routing down the representative core).
	var joinMsgs int
	ids := make([]int, 0, expected)
	for i := 0; i < expected; i++ {
		id, st, err := overlay.Join(r.UniformDisk(1))
		if err != nil {
			log.Fatal(err)
		}
		joinMsgs += st.Messages
		ids = append(ids, id)
	}
	report("after flash crowd:")
	fmt.Printf("%-28s %.1f control messages per join (k=%d)\n", "",
		float64(joinMsgs)/float64(expected), omtree.SuggestOverlayK(expected))

	// Departure wave: a third of the membership leaves; orphans are
	// adopted locally.
	r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:expected/3] {
		if _, err := overlay.Leave(id); err != nil {
			log.Fatal(err)
		}
	}
	report("after departure wave:")

	// Coordinated rebuild: the source re-runs the centralized algorithm
	// over the surviving membership — O(n) messages, optimal tree.
	st, err := overlay.Rebuild()
	if err != nil {
		log.Fatal(err)
	}
	report("after coordinated rebuild:")
	fmt.Printf("%-28s rebuild cost: %d messages\n", "", st.Messages)

	// The rebuilt session keeps serving churn.
	for i := 0; i < 200; i++ {
		if _, _, err := overlay.Join(r.UniformDisk(1)); err != nil {
			log.Fatal(err)
		}
	}
	report("after 200 more joins:")

	// The network turns hostile: 15% of control messages vanish, some are
	// duplicated, and the occasional peer crashes mid-conversation. Joins
	// retry with backoff (and may give up); heartbeats keep running.
	plane, err := omtree.NewFaultPlane(omtree.FaultScenario{
		Seed: 778, LossRate: 0.15, DupRate: 0.05, CrashRate: 0.002, DelayMean: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fcfg := omtree.DefaultOverlayFaultConfig()
	if err := overlay.SetTransport(plane, fcfg); err != nil {
		log.Fatal(err)
	}
	refused := 0
	for i := 0; i < 300; i++ {
		if _, _, err := overlay.Join(r.UniformDisk(1)); err != nil {
			refused++
		}
		if i%50 == 49 {
			if _, err := overlay.MaintenanceRound(); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("%-28s %d joins refused, %d retries, %d mid-op crashes, coverage %.1f%%\n",
		"under 15% message loss:", refused, overlay.Stats.Retries,
		overlay.Stats.InjectedCrashes, 100*overlay.CoverageRatio())

	// Loss stops; the failure detector converges the overlay back to a
	// clean structural audit within a bounded number of heartbeat rounds.
	plane.SetActive(false)
	rounds, err := overlay.Converge(fcfg.ConfirmAfter + 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s audit clean after %d heartbeat rounds\n", "self-healed:", rounds)
	report("after self-healing:")

	// A backbone failure splits the network in two. Subtrees cut off from
	// the source elect interim coordinators and keep serving joins in
	// degraded mode; token-bucket admission control sheds the worst of the
	// join storm with retry-after hints instead of timing everyone out.
	plane2, err := omtree.NewFaultPlane(omtree.FaultScenario{Seed: 779, LossRate: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	if err := overlay.SetTransport(plane2, fcfg); err != nil {
		log.Fatal(err)
	}
	if err := overlay.SetAdmission(omtree.OverlayAdmission{RatePerRound: 2, QueueLimit: 6}); err != nil {
		log.Fatal(err)
	}
	if err := plane2.Partition(2); err != nil {
		log.Fatal(err)
	}
	queued, shed := 0, 0
	for round := 0; round < fcfg.ConfirmAfter+4; round++ {
		if _, err := overlay.MaintenanceRound(); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			_, _, err := overlay.Join(r.UniformDisk(1))
			switch {
			case errors.Is(err, omtree.ErrJoinQueued):
				queued++
			case err != nil:
				var ra *omtree.RetryAfter
				if errors.As(err, &ra) {
					shed++
				}
			}
		}
	}
	fmt.Printf("%-28s %d islands serving %d degraded joins; %d queued, %d shed\n",
		"during the partition:", overlay.Islands(), overlay.Stats.DegradedJoins, queued, shed)

	// The backbone comes back: reconciliation re-grafts each island under
	// its proper grid anchor and the audit goes clean again.
	plane2.Heal()
	plane2.SetActive(false)
	rounds, err = overlay.Converge(fcfg.ConfirmAfter + 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s %d reconciliations, %d island merges, audit clean after %d rounds\n",
		"after the heal:", overlay.Stats.Reconciliations, overlay.Stats.IslandMerges, rounds)
	report("after reconciliation:")

	// Kinetic epilogue: the members stop churning but their coordinates
	// don't — route changes keep re-mapping hosts to new vantage points.
	// Periodic re-estimation sweeps refresh the coordinates, and the eq. 7
	// certificate monitor repairs the tree through dirty cells only,
	// falling back to a full rebuild when too much of the grid moved.
	if _, err := overlay.Rebuild(); err != nil { // freeze a fresh certificate
		log.Fatal(err)
	}
	drift, err := omtree.NewDriftModel(omtree.DriftModelConfig{
		Seed: 780, JumpRate: 0.004, JumpMean: 0.15,
		InflationPerEpoch: 0.05, Bound: 0.99,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := overlay.SetDrift(drift); err != nil {
		log.Fatal(err)
	}
	for round := 0; round < 12; round++ {
		if _, err := overlay.MaintenanceRound(); err != nil {
			log.Fatal(err)
		}
	}
	ratio, _ := overlay.CertificateRatio()
	fmt.Printf("%-28s %d node moves applied, %d local repairs, %d full fallbacks, certificate ratio %.3f\n",
		"under coordinate drift:", overlay.Stats.DriftedNodes,
		overlay.Stats.LocalRepairs, overlay.Stats.FullRebuildFallbacks, ratio)
	report("after kinetic repairs:")

	tr, _, _, err := overlay.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.Validate(6); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal tree validated: spanning, acyclic, out-degree <= 6")
	fmt.Printf("session totals: %+v\n", overlay.Stats)
	fmt.Printf("trace: %d events buffered (%d evicted from the %d-event ring); write rec.WriteChromeJSON to inspect in Perfetto\n",
		rec.Len(), rec.Dropped(), rec.Cap())
}
