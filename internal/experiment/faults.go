package experiment

import (
	"fmt"

	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/netsim"
	"omtree/internal/obs/trace"
	"omtree/internal/protocol"
	"omtree/internal/rng"
	"omtree/internal/stats"
)

// FaultSweepConfig parameterizes the unreliable-control-plane experiment: an
// overlay is grown reliably, then churned (joins, leaves, crashes,
// maintenance) over a fault-injected transport at each loss rate, and
// finally left to self-heal once injection stops.
type FaultSweepConfig struct {
	// N is the warm membership built before faults start.
	N int
	// LossRates are the per-attempt control-message loss probabilities to
	// sweep, each in [0, 1).
	LossRates []float64
	// Ops is the number of churn operations performed under injection
	// (default 4*sqrt(N), at least 50).
	Ops    int
	Trials int
	Seed   uint64
	// MaxOutDegree >= 3.
	MaxOutDegree int
	// Trace, when non-nil, records every trial's control- and data-plane
	// events (joins, retries, fault verdicts, heartbeats, repairs, packet
	// timelines) on one recorder. Trials run sequentially, so the timeline
	// is deterministic for a fixed config. Nil disables tracing.
	Trace *trace.Recorder
}

// The fault sweep's fixed scenario.
const (
	// faultDupRate, faultCrashRate and faultDelayMean fill the rest of the
	// fault scenario beside each swept loss rate.
	faultDupRate   = 0.05
	faultCrashRate = 0.01
	faultDelayMean = 0.1
	// faultSettleRounds bounds the post-injection convergence loop beyond
	// the fault config's ConfirmAfter.
	faultSettleRounds = 12
	// faultPackets is the data-plane session length used to measure
	// delivery under the same loss rate.
	faultPackets = 20
)

// FaultRow aggregates one loss rate across trials.
type FaultRow struct {
	Loss float64
	// JoinFail is the fraction of joins under injection that gave up after
	// exhausting their retry budget.
	JoinFail float64
	// RetriesPerMsg and LossPerMsg are transport-level overhead ratios:
	// re-sent attempts and attempts eaten by the network, per control
	// message sent.
	RetriesPerMsg, LossPerMsg float64
	// Crashed is the mean number of nodes the fault plane killed
	// mid-operation per trial.
	Crashed float64
	// PreCoverage is the live-member coverage right after injection stops,
	// before any healing round.
	PreCoverage float64
	// ConvergeRounds is the mean number of maintenance rounds until the
	// structural audit passes again.
	ConvergeRounds float64
	// FalseConfirms counts live nodes wrongly declared dead (they rejoin).
	FalseConfirms float64
	// DeliveryRatio is the data-plane fraction of packet deliveries that
	// succeed on the healed tree when links drop at the same loss rate.
	DeliveryRatio float64
}

// RunFaultSweep measures protocol degradation and recovery across control
// message loss rates.
func RunFaultSweep(cfg FaultSweepConfig) ([]FaultRow, error) {
	if cfg.N < 10 || cfg.Trials < 1 || len(cfg.LossRates) == 0 {
		return nil, fmt.Errorf("experiment: invalid fault-sweep config")
	}
	if cfg.MaxOutDegree < 3 {
		return nil, fmt.Errorf("experiment: fault-sweep degree %d < 3", cfg.MaxOutDegree)
	}
	ops := cfg.Ops
	if ops <= 0 {
		ops = 4 * isqrt(cfg.N)
		if ops < 50 {
			ops = 50
		}
	}
	fcfg := protocol.DefaultFaultConfig()
	maxRounds := fcfg.ConfirmAfter + faultSettleRounds

	rows := make([]FaultRow, 0, len(cfg.LossRates))
	for li, loss := range cfg.LossRates {
		if loss < 0 || loss >= 1 {
			return nil, fmt.Errorf("experiment: loss rate %v out of [0, 1)", loss)
		}
		var joinFail, retries, lost, crashed stats.Accumulator
		var preCov, rounds, falseConfirms, delivery stats.Accumulator
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := trialSeed(cfg.Seed^0xfa17, li, trial)
			r := rng.New(seed)
			o, err := protocol.New(protocol.Config{
				Source: geom.Point2{}, Scale: 1,
				K: protocol.SuggestK(cfg.N), MaxOutDegree: cfg.MaxOutDegree,
			})
			if err != nil {
				return nil, err
			}
			o.Trace(cfg.Trace)
			live := make([]int, 0, cfg.N)
			for i := 0; i < cfg.N; i++ {
				id, _, err := o.Join(r.UniformDisk(1))
				if err != nil {
					return nil, err
				}
				live = append(live, id)
			}

			plane, err := faultplane.New(faultplane.Scenario{
				Seed: seed ^ 0x5eed, LossRate: loss,
				DupRate: faultDupRate, CrashRate: faultCrashRate, DelayMean: faultDelayMean,
			})
			if err != nil {
				return nil, err
			}
			if err := o.SetTransport(plane, fcfg); err != nil {
				return nil, err
			}

			joins, failedJoins := 0, 0
			for step := 0; step < ops; step++ {
				switch x := r.Float64(); {
				case x < 0.5 || len(live) < 10:
					joins++
					id, _, err := o.Join(r.UniformDisk(1))
					if err != nil {
						failedJoins++ // retry budget exhausted; node gives up
					} else {
						live = append(live, id)
					}
				case x < 0.75:
					pick := r.Intn(len(live))
					id := live[pick]
					live[pick] = live[len(live)-1]
					live = live[:len(live)-1]
					// An error means a mid-operation crash already took the
					// node; either way it is out of the membership.
					_, _ = o.Leave(id)
				case x < 0.85:
					pick := r.Intn(len(live))
					id := live[pick]
					live[pick] = live[len(live)-1]
					live = live[:len(live)-1]
					_ = o.FailAbrupt(id)
				default:
					if _, err := o.MaintenanceRound(); err != nil {
						return nil, err
					}
				}
			}

			plane.SetActive(false)
			preCov.Add(o.CoverageRatio())
			nr, err := o.Converge(maxRounds)
			if err != nil {
				return nil, fmt.Errorf("experiment: loss %v trial %d did not converge: %w", loss, trial, err)
			}
			rounds.Add(float64(nr))

			sent := o.Stats.JoinMessages + o.Stats.LeaveMessages + o.Stats.MaintenanceMessages
			if sent < 1 {
				sent = 1
			}
			joinFail.Add(float64(failedJoins) / float64(max(joins, 1)))
			retries.Add(float64(o.Stats.Retries) / float64(sent))
			lost.Add(float64(o.Stats.MessagesLost) / float64(sent))
			crashed.Add(float64(o.Stats.InjectedCrashes))
			falseConfirms.Add(float64(o.Stats.FalseConfirms))

			t, pts, _, err := o.Snapshot()
			if err != nil {
				return nil, err
			}
			sim, err := netsim.New(t, netsim.Config{
				Latency: func(i, j int) float64 { return pts[i].Dist(pts[j]) },
				Drop:    faultplane.LinkDrop(seed^0xd07a, loss),
				Trace:   cfg.Trace,
			})
			if err != nil {
				return nil, err
			}
			res := sim.Session(faultPackets, 0.1, nil)
			missed := 0
			for _, l := range res.Lost {
				missed += l
			}
			if recvs := t.N() - 1; recvs > 0 {
				delivery.Add(1 - float64(missed)/float64(faultPackets*recvs))
			} else {
				delivery.Add(1)
			}
		}
		rows = append(rows, FaultRow{
			Loss:           loss,
			JoinFail:       joinFail.Mean(),
			RetriesPerMsg:  retries.Mean(),
			LossPerMsg:     lost.Mean(),
			Crashed:        crashed.Mean(),
			PreCoverage:    preCov.Mean(),
			ConvergeRounds: rounds.Mean(),
			FalseConfirms:  falseConfirms.Mean(),
			DeliveryRatio:  delivery.Mean(),
		})
	}
	return rows, nil
}

// FaultTable renders the loss sweep.
func FaultTable(rows []FaultRow, n int) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("Loss@n=%d", n), "JoinFail%", "Retries/msg",
		"Lost/msg", "Crashed", "PreCov%", "HealRounds", "FalseDead", "Delivery%")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.0f%%", 100*r.Loss),
			fmt.Sprintf("%.1f%%", 100*r.JoinFail),
			fmt.Sprintf("%.3f", r.RetriesPerMsg),
			fmt.Sprintf("%.3f", r.LossPerMsg),
			fmt.Sprintf("%.1f", r.Crashed),
			fmt.Sprintf("%.1f%%", 100*r.PreCoverage),
			fmt.Sprintf("%.1f", r.ConvergeRounds),
			fmt.Sprintf("%.1f", r.FalseConfirms),
			fmt.Sprintf("%.2f%%", 100*r.DeliveryRatio),
		)
	}
	return t
}

func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}
