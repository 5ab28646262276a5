package experiment

import (
	"fmt"

	"omtree/internal/core"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/obs/trace"
	"omtree/internal/protocol"
	"omtree/internal/rng"
	"omtree/internal/stats"
)

// PartitionSweepConfig parameterizes the partition-tolerance experiment: a
// warm overlay is split k ways on a scheduled round, stormed with joins
// while degraded (throttled by token-bucket admission control), healed, and
// left to reconcile back into one audited tree.
type PartitionSweepConfig struct {
	// N is the warm membership built before the split.
	N int
	// Sides are the k-way splits to sweep (each >= 2).
	Sides  []int
	Trials int
	Seed   uint64
	// MaxOutDegree >= 3.
	MaxOutDegree int
	// Trace, when non-nil, records every trial's events on one recorder.
	Trace *trace.Recorder
}

// The partition sweep's fixed scenario.
const (
	// partitionLoss is the background message loss kept active through
	// the run.
	partitionLoss = 0.05
	// partitionJoinRate is the admission-control token rate, in joins per
	// maintenance round, applied for the storm.
	partitionJoinRate = 2
	// partitionStormJoins is the number of joins attempted per round while
	// the overlay is split.
	partitionStormJoins = 3
	// partitionSplitAt and partitionHealAt place the partition on the
	// round clock.
	partitionSplitAt, partitionHealAt = 2, 8
	// partitionSettleRounds bounds the post-heal convergence loop beyond
	// the fault config's ConfirmAfter.
	partitionSettleRounds = 16
)

// PartitionRow aggregates one split width across trials.
type PartitionRow struct {
	Sides int
	// PeakIslands is the mean peak number of degraded islands serving joins
	// apart from the root side.
	PeakIslands float64
	// Degraded, Queued, Shed split the storm's joins by how admission and
	// the partition handled them; Admitted counts queued joins later drained
	// by maintenance rounds.
	Degraded, Queued, Admitted, Shed float64
	// Merges and Reconciliations count island elections won by absorption
	// and successful post-heal re-grafts.
	Merges, Reconciliations float64
	// HealRounds is the mean number of maintenance rounds after the heal
	// until the strict audit passes.
	HealRounds float64
	// Ghosts is the mean number of dead members still wired in after
	// convergence and repair sweeps (must be 0).
	Ghosts float64
	// RadiusRatio is the session radius after a post-heal Rebuild divided
	// by the eq. 7 bound for the surviving membership (must be <= 1).
	RadiusRatio float64
}

// RunPartitionSweep measures degraded-mode service and reconciliation
// quality across partition widths.
func RunPartitionSweep(cfg PartitionSweepConfig) ([]PartitionRow, error) {
	if cfg.N < 10 || cfg.Trials < 1 || len(cfg.Sides) == 0 {
		return nil, fmt.Errorf("experiment: invalid partition-sweep config")
	}
	if cfg.MaxOutDegree < 3 {
		return nil, fmt.Errorf("experiment: partition-sweep degree %d < 3", cfg.MaxOutDegree)
	}
	fcfg := protocol.DefaultFaultConfig()
	maxRounds := fcfg.ConfirmAfter + partitionSettleRounds

	rows := make([]PartitionRow, 0, len(cfg.Sides))
	for si, sides := range cfg.Sides {
		if sides < 2 {
			return nil, fmt.Errorf("experiment: partition sides %d < 2", sides)
		}
		var peak, degraded, queued, admitted, shed stats.Accumulator
		var merges, reconciles, healRounds, ghosts, ratio stats.Accumulator
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := trialSeed(cfg.Seed^0x9a47, si, trial)
			r := rng.New(seed)
			o, err := protocol.New(protocol.Config{
				Source: geom.Point2{}, Scale: 1,
				K: protocol.SuggestK(cfg.N), MaxOutDegree: cfg.MaxOutDegree,
			})
			if err != nil {
				return nil, err
			}
			o.Trace(cfg.Trace)
			for i := 0; i < cfg.N; i++ {
				if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
					return nil, err
				}
			}

			plane, err := faultplane.New(faultplane.Scenario{
				Seed: seed ^ 0x5eed, LossRate: partitionLoss,
			})
			if err != nil {
				return nil, err
			}
			if err := o.SetTransport(plane, fcfg); err != nil {
				return nil, err
			}
			if err := plane.SetSchedule([]faultplane.PartitionEvent{
				{Sides: sides, Start: partitionSplitAt, Heal: partitionHealAt},
			}); err != nil {
				return nil, err
			}
			// Admission throttles the storm, not the warm build.
			if err := o.SetAdmission(protocol.Admission{RatePerRound: partitionJoinRate}); err != nil {
				return nil, err
			}

			// Run the schedule through its heal, storming joins while split.
			islands := 0
			for plane.Ticks() <= partitionHealAt {
				ms, err := o.MaintenanceRound()
				if err != nil {
					return nil, err
				}
				if ms.Islands > islands {
					islands = ms.Islands
				}
				if t := plane.Ticks(); t >= partitionSplitAt && t < partitionHealAt {
					for i := 0; i < partitionStormJoins; i++ {
						// Queued, shed, served degraded, or refused outright
						// (a dark side with no reachable island); the error
						// taxonomy lands in the session counters either way.
						_, _, _ = o.Join(r.UniformDisk(1))
					}
				}
			}

			// The network is healed: stop background loss and count the
			// rounds reconciliation needs to pass the strict audit again.
			plane.SetActive(false)
			nr, err := o.Converge(maxRounds)
			if err != nil {
				return nil, fmt.Errorf("experiment: sides %d trial %d did not reconcile: %w", sides, trial, err)
			}
			for sweeps := 0; o.Ghosts() > 0 && sweeps < maxRounds; sweeps++ {
				if _, err := o.DetectAndRepair(); err != nil {
					return nil, err
				}
				nr++
			}

			peak.Add(float64(islands))
			degraded.Add(float64(o.Stats.DegradedJoins))
			queued.Add(float64(o.Stats.JoinsQueued))
			admitted.Add(float64(o.Stats.QueuedAdmitted))
			shed.Add(float64(o.Stats.JoinsShed))
			merges.Add(float64(o.Stats.IslandMerges))
			reconciles.Add(float64(o.Stats.Reconciliations))
			healRounds.Add(float64(nr))
			ghosts.Add(float64(o.Ghosts()))

			// eq. 7 sweep: the periodic Rebuild must bring the reconciled
			// membership back under the centralized radius bound.
			if _, err := o.Rebuild(); err != nil {
				return nil, err
			}
			rad, err := o.Radius()
			if err != nil {
				return nil, err
			}
			_, pts, _, err := o.Snapshot()
			if err != nil {
				return nil, err
			}
			c, err := core.Build2(geom.Point2{}, pts[1:], core.WithMaxOutDegree(cfg.MaxOutDegree))
			if err != nil {
				return nil, err
			}
			ratio.Add(rad / c.Bound)
		}
		rows = append(rows, PartitionRow{
			Sides:           sides,
			PeakIslands:     peak.Mean(),
			Degraded:        degraded.Mean(),
			Queued:          queued.Mean(),
			Admitted:        admitted.Mean(),
			Shed:            shed.Mean(),
			Merges:          merges.Mean(),
			Reconciliations: reconciles.Mean(),
			HealRounds:      healRounds.Mean(),
			Ghosts:          ghosts.Mean(),
			RadiusRatio:     ratio.Mean(),
		})
	}
	return rows, nil
}

// PartitionTable renders the partition sweep.
func PartitionTable(rows []PartitionRow, n int) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Sides@n=%d", n), "PeakIslands", "Degraded",
		"Queued", "Admitted", "Shed", "Merges", "Reconciled", "HealRounds", "Ghosts", "Radius/Bound")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Sides),
			fmt.Sprintf("%.1f", r.PeakIslands),
			fmt.Sprintf("%.1f", r.Degraded),
			fmt.Sprintf("%.1f", r.Queued),
			fmt.Sprintf("%.1f", r.Admitted),
			fmt.Sprintf("%.1f", r.Shed),
			fmt.Sprintf("%.1f", r.Merges),
			fmt.Sprintf("%.1f", r.Reconciliations),
			fmt.Sprintf("%.1f", r.HealRounds),
			fmt.Sprintf("%.1f", r.Ghosts),
			fmt.Sprintf("%.3f", r.RadiusRatio),
		)
	}
	return t
}
