package experiment

import (
	"fmt"

	"omtree/internal/coords"
	"omtree/internal/geom"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
	"omtree/internal/protocol"
	"omtree/internal/rng"
	"omtree/internal/stats"
)

// DriftSweepConfig parameterizes the kinetic-repair experiment: a warm
// overlay's member coordinates drift under a seeded jump model (route
// changes relocating a few nodes per epoch) while the certificate monitor
// repairs per policy. The sweep maps the drift rate x repair policy grid
// onto a realized-radius-vs-message-cost frontier: the local policy should
// hold the eq. 7 certificate at a fraction of the periodic-full-rebuild
// baseline's traffic.
type DriftSweepConfig struct {
	// N is the warm membership built before drift starts.
	N int
	// Rates are the per-epoch coordinate jump probabilities to sweep.
	Rates []float64
	// Policies are compared at each rate (default none, local, full).
	Policies []protocol.RepairPolicy
	// Rounds is the number of maintenance rounds driven per trial
	// (default 24).
	Rounds int
	Trials int
	Seed   uint64
	// MaxOutDegree >= 3.
	MaxOutDegree int
	// Trace, when non-nil, records every trial's events on one recorder.
	Trace *trace.Recorder
	// Obs, when non-nil, receives every trial's session metrics (counter
	// funcs are last-wins, so the registry always reflects the trial in
	// flight).
	Obs *obs.Registry
	// Flight, when non-nil, samples every trial's maintenance rounds on one
	// recorder — the CLI's -flight surface for the drift sweep.
	Flight *flight.Recorder
}

// The drift sweep's fixed model and repair trigger.
const (
	// driftJumpMean is the mean jump displacement.
	driftJumpMean = 0.15
	// driftReestimatePeriod is the re-estimation sweep cadence in rounds.
	driftReestimatePeriod = 3
	// driftThreshold is the certificate ratio that triggers the local
	// policy: repair on 5% degradation.
	driftThreshold = 1.05
)

// DriftRow aggregates one (rate, policy) cell across trials.
type DriftRow struct {
	Rate   float64
	Policy string
	// Reestimates and Drifted count re-estimation sweeps and applied node
	// moves.
	Reestimates, Drifted float64
	// LocalRepairs, Fallbacks, and Rebuilds split the repair reactions:
	// dirty-cell incremental repairs, cutoff-escalated full rebuilds, and
	// total Rebuild calls after the warm build (the full policy's periodic
	// refreshes land here).
	LocalRepairs, Fallbacks, Rebuilds float64
	// Messages is the kinetic loop's traffic after the warm build:
	// re-estimation reports, cell handoffs, and repair rebuild messages.
	Messages float64
	// CertRatio is the final realized radius over the certified radius.
	CertRatio float64
	// BoundRatio is the final realized radius over the eq. 7 bound; the
	// repairing policies must keep it <= 1.
	BoundRatio float64
}

// RunDriftSweep measures certificate degradation and repair cost across
// drift rates and repair policies.
func RunDriftSweep(cfg DriftSweepConfig) ([]DriftRow, error) {
	if cfg.N < 10 || cfg.Trials < 1 || len(cfg.Rates) == 0 {
		return nil, fmt.Errorf("experiment: invalid drift-sweep config")
	}
	if cfg.MaxOutDegree < 3 {
		return nil, fmt.Errorf("experiment: drift-sweep degree %d < 3", cfg.MaxOutDegree)
	}
	policies := cfg.Policies
	if len(policies) == 0 {
		policies = []protocol.RepairPolicy{protocol.RepairNone, protocol.RepairLocal, protocol.RepairFull}
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = 24
	}

	rows := make([]DriftRow, 0, len(cfg.Rates)*len(policies))
	for ri, rate := range cfg.Rates {
		if rate < 0 || rate >= 1 {
			return nil, fmt.Errorf("experiment: drift rate %v outside [0, 1)", rate)
		}
		for pi, policy := range policies {
			var reest, drifted, localRep, fallbacks, rebuilds stats.Accumulator
			var msgs, certRatio, boundRatio stats.Accumulator
			for trial := 0; trial < cfg.Trials; trial++ {
				seed := trialSeed(cfg.Seed^0xd21f7, ri*len(policies)+pi, trial)
				r := rng.New(seed)
				o, err := protocol.New(protocol.Config{
					Source: geom.Point2{}, Scale: 1,
					K: protocol.SuggestK(cfg.N), MaxOutDegree: cfg.MaxOutDegree,
					Drift: protocol.DriftConfig{
						ReestimatePeriod:     driftReestimatePeriod,
						DegradationThreshold: driftThreshold,
						Policy:               policy,
					},
				})
				if err != nil {
					return nil, err
				}
				o.Observe(cfg.Obs)
				o.Trace(cfg.Trace)
				o.SetFlight(cfg.Flight)
				for i := 0; i < cfg.N; i++ {
					if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
						return nil, err
					}
				}
				// Arm the certificate before drift starts; the warm build's
				// traffic is excluded from the per-policy message comparison.
				if _, err := o.Rebuild(); err != nil {
					return nil, err
				}
				// Bound 0.99 keeps drifted positions strictly inside the
				// membership's outermost radius, so jumps relocate members
				// between cells instead of forcing grid-scale growth (which
				// would escalate every local repair into a full rebuild).
				m, err := coords.NewDriftModel(coords.DriftConfig{
					Seed: seed ^ 0xd21f, JumpRate: rate, JumpMean: driftJumpMean,
					InflationPerEpoch: 0.05, Bound: 0.99,
				})
				if err != nil {
					return nil, err
				}
				if err := o.SetDrift(m); err != nil {
					return nil, err
				}
				baseMsgs := o.Stats.RebuildMessages + o.Stats.DriftMessages
				baseRebuilds := o.Stats.Rebuilds
				for round := 0; round < rounds; round++ {
					if _, err := o.MaintenanceRound(); err != nil {
						return nil, err
					}
				}
				ratio, armed := o.CertificateRatio()
				if !armed {
					return nil, fmt.Errorf("experiment: rate %v policy %v trial %d left the certificate unarmed", rate, policy, trial)
				}
				reest.Add(float64(o.Stats.DriftReestimates))
				drifted.Add(float64(o.Stats.DriftedNodes))
				localRep.Add(float64(o.Stats.LocalRepairs))
				fallbacks.Add(float64(o.Stats.FullRebuildFallbacks))
				rebuilds.Add(float64(o.Stats.Rebuilds - baseRebuilds))
				msgs.Add(float64(o.Stats.RebuildMessages + o.Stats.DriftMessages - baseMsgs))
				certRatio.Add(ratio)
				boundRatio.Add(o.RealizedRadius() / o.Certificate().Bound)
			}
			rows = append(rows, DriftRow{
				Rate:         rate,
				Policy:       policy.String(),
				Reestimates:  reest.Mean(),
				Drifted:      drifted.Mean(),
				LocalRepairs: localRep.Mean(),
				Fallbacks:    fallbacks.Mean(),
				Rebuilds:     rebuilds.Mean(),
				Messages:     msgs.Mean(),
				CertRatio:    certRatio.Mean(),
				BoundRatio:   boundRatio.Mean(),
			})
		}
	}
	return rows, nil
}

// DriftTable renders the drift sweep.
func DriftTable(rows []DriftRow, n int) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Rate@n=%d", n), "Policy", "Reest", "Drifted",
		"Local", "Fallback", "Rebuilds", "Msgs", "CertRatio", "Radius/Bound")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.3f", r.Rate),
			r.Policy,
			fmt.Sprintf("%.1f", r.Reestimates),
			fmt.Sprintf("%.1f", r.Drifted),
			fmt.Sprintf("%.1f", r.LocalRepairs),
			fmt.Sprintf("%.1f", r.Fallbacks),
			fmt.Sprintf("%.1f", r.Rebuilds),
			fmt.Sprintf("%.0f", r.Messages),
			fmt.Sprintf("%.3f", r.CertRatio),
			fmt.Sprintf("%.3f", r.BoundRatio),
		)
	}
	return t
}
