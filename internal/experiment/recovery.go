package experiment

import (
	"bytes"
	"errors"
	"fmt"

	"omtree/internal/core"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/protocol"
	"omtree/internal/rng"
	"omtree/internal/snapshot"
	"omtree/internal/stats"
)

// RecoverySweepConfig parameterizes the crash×restart sweep: a warm
// session checkpoints itself, the coordinator is killed at each
// instrumented kill point, and a fresh process restores the last good
// snapshot and must converge back to a clean, bounded tree.
type RecoverySweepConfig struct {
	// N is the warm membership built before the crash schedule.
	N int
	// KillPoints are the instrumented crash sites to sweep (default: all
	// four — snapshot/encode, snapshot/write, rebuild/rewire, reconcile).
	KillPoints []string
	Trials     int
	Seed       uint64
	// MaxOutDegree >= 3.
	MaxOutDegree int
}

// recoveryRounds bounds the post-restore convergence loop.
const recoveryRounds = 24

// RecoveryRow aggregates one kill point across trials.
type RecoveryRow struct {
	KillPoint string
	// SnapshotBytes is the mean size of the last good checkpoint.
	SnapshotBytes float64
	// TornFallbacks is the mean number of restore attempts per trial that
	// hit a checksum-rejected torn snapshot and fell back to the previous
	// checkpoint (non-zero only where the crash interrupts the write).
	TornFallbacks float64
	// RecoverRounds is the mean number of maintenance rounds the restored
	// session needs before the strict audit passes again.
	RecoverRounds float64
	// Rejoined is the mean number of crashed members revived in place via
	// Restart after the restore.
	Rejoined float64
	// RadiusRatio is the recovered session's radius divided by the eq. 7
	// bound for its membership (must be <= 1 after the post-recovery
	// rebuild).
	RadiusRatio float64
}

// defaultKillPoints mirrors the protocol layer's instrumented crash sites.
var defaultKillPoints = []string{
	"snapshot/encode", "snapshot/write", "rebuild/rewire", "reconcile",
}

// RunRecoverySweep measures crash-recovery quality at every kill point.
func RunRecoverySweep(cfg RecoverySweepConfig) ([]RecoveryRow, error) {
	if cfg.N < 20 || cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: invalid recovery-sweep config")
	}
	if cfg.MaxOutDegree < 3 {
		return nil, fmt.Errorf("experiment: recovery-sweep degree %d < 3", cfg.MaxOutDegree)
	}
	points := cfg.KillPoints
	if len(points) == 0 {
		points = defaultKillPoints
	}
	rows := make([]RecoveryRow, 0, len(points))
	for pi, point := range points {
		var size, torn, rounds, rejoined, ratio stats.Accumulator
		for trial := 0; trial < cfg.Trials; trial++ {
			out, err := runRecoveryTrial(point, cfg, trialSeed(cfg.Seed^0x6b72, pi, trial))
			if err != nil {
				return nil, fmt.Errorf("experiment: %s trial %d: %w", point, trial, err)
			}
			size.Add(float64(out.snapshotBytes))
			torn.Add(float64(out.tornFallbacks))
			rounds.Add(float64(out.recoverRounds))
			rejoined.Add(float64(out.rejoined))
			ratio.Add(out.radiusRatio)
		}
		rows = append(rows, RecoveryRow{
			KillPoint:     point,
			SnapshotBytes: size.Mean(),
			TornFallbacks: torn.Mean(),
			RecoverRounds: rounds.Mean(),
			Rejoined:      rejoined.Mean(),
			RadiusRatio:   ratio.Mean(),
		})
	}
	return rows, nil
}

type recoveryTrial struct {
	snapshotBytes int
	tornFallbacks int
	recoverRounds int
	rejoined      int
	radiusRatio   float64
}

// runRecoveryTrial kills one coordinator at the named point and restores.
func runRecoveryTrial(point string, cfg RecoverySweepConfig, seed uint64) (recoveryTrial, error) {
	var out recoveryTrial
	o, err := protocol.New(protocol.Config{
		Source: geom.Point2{}, Scale: 1,
		K: protocol.SuggestK(cfg.N), MaxOutDegree: cfg.MaxOutDegree,
	})
	if err != nil {
		return out, err
	}
	r := rng.New(seed)
	for i := 0; i < cfg.N; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			return out, err
		}
	}
	if _, err := o.Rebuild(); err != nil {
		return out, err
	}
	for i := 0; i < 3; i++ {
		if _, err := o.MaintenanceRound(); err != nil {
			return out, err
		}
	}
	// An earlier checkpoint the torn-write case can fall back to.
	var prev bytes.Buffer
	if err := o.WriteSnapshot(&prev); err != nil {
		return out, err
	}
	// Mess the state up, then checkpoint again: an undetected crash rides
	// inside the snapshot, so recovery includes real detector work.
	victim := 1 + int(r.Uint64()%uint64(cfg.N-1))
	if err := o.FailAbrupt(victim); err != nil {
		return out, err
	}
	var good bytes.Buffer
	if err := o.WriteSnapshot(&good); err != nil {
		return out, err
	}
	out.snapshotBytes = good.Len()

	// Crash the coordinator at the scheduled point.
	plan, err := faultplane.NewKillPlan(faultplane.KillEvent{Point: point, Hit: 1})
	if err != nil {
		return out, err
	}
	o.SetKillPlan(plan)
	var killErr error
	var tornBlob []byte
	switch point {
	case "snapshot/encode", "snapshot/write":
		var b bytes.Buffer
		killErr = o.WriteSnapshot(&b)
		tornBlob = b.Bytes()
	case "rebuild/rewire":
		_, killErr = o.Rebuild()
	case "reconcile":
		plane, err := faultplane.New(faultplane.Scenario{Seed: seed})
		if err != nil {
			return out, err
		}
		if err := o.SetTransport(plane, protocol.DefaultFaultConfig()); err != nil {
			return out, err
		}
		if err := plane.SetSchedule([]faultplane.PartitionEvent{{Sides: 2, Start: 2, Heal: 10}}); err != nil {
			return out, err
		}
		for i := 0; i < 24 && killErr == nil; i++ {
			_, killErr = o.MaintenanceRound()
		}
	default:
		return out, fmt.Errorf("unknown kill point %q", point)
	}
	var killed *faultplane.KilledError
	if !errors.As(killErr, &killed) {
		return out, fmt.Errorf("no kill fired (err %v)", killErr)
	}

	// Restart: prefer the snapshot the dying write produced; a torn one is
	// rejected by checksum and the previous checkpoint takes over.
	blob := good.Bytes()
	if len(tornBlob) > 0 {
		if _, err := protocol.Restore(bytes.NewReader(tornBlob)); errors.Is(err, snapshot.ErrCorrupt) {
			out.tornFallbacks++
		} else if err == nil {
			return out, fmt.Errorf("torn snapshot restored cleanly")
		} else {
			return out, err
		}
	}
	o2, err := protocol.Restore(bytes.NewReader(blob))
	if err != nil {
		return out, err
	}
	// Converge: the undetected crash inside the checkpoint must be found
	// and repaired before the strict audit passes.
	for out.recoverRounds = 0; out.recoverRounds < recoveryRounds; out.recoverRounds++ {
		if o2.Audit() == nil {
			break
		}
		if _, err := o2.MaintenanceRound(); err != nil {
			return out, err
		}
	}
	if err := o2.Audit(); err != nil {
		return out, fmt.Errorf("no clean audit after %d rounds: %w", recoveryRounds, err)
	}
	// The crashed member rejoins in place from its recorded position.
	if _, err := o2.Restart(victim); err != nil {
		return out, err
	}
	out.rejoined++
	if err := o2.Audit(); err != nil {
		return out, fmt.Errorf("audit after restart: %w", err)
	}
	// Post-recovery quality: rebuild and compare against the eq. 7 bound
	// for the recovered membership.
	if _, err := o2.Rebuild(); err != nil {
		return out, err
	}
	radius, err := o2.Radius()
	if err != nil {
		return out, err
	}
	_, pts, _, err := o2.Snapshot()
	if err != nil {
		return out, err
	}
	res, err := core.Build2(geom.Point2{}, pts[1:], core.WithMaxOutDegree(cfg.MaxOutDegree))
	if err != nil {
		return out, err
	}
	out.radiusRatio = radius / res.Bound
	if out.radiusRatio > 1+1e-9 {
		return out, fmt.Errorf("eq. 7 violated after recovery: radius %v > bound %v", radius, res.Bound)
	}
	return out, nil
}

// RecoveryTable renders the crash×restart sweep.
func RecoveryTable(rows []RecoveryRow, n int) *stats.Table {
	t := stats.NewTable("KillPoint", fmt.Sprintf("SnapKB@n=%d", n),
		"TornFallbacks", "RecoverRounds", "Rejoined", "Radius/Bound")
	for _, r := range rows {
		t.AddRow(
			r.KillPoint,
			fmt.Sprintf("%.1f", r.SnapshotBytes/1024),
			fmt.Sprintf("%.2f", r.TornFallbacks),
			fmt.Sprintf("%.1f", r.RecoverRounds),
			fmt.Sprintf("%.2f", r.Rejoined),
			fmt.Sprintf("%.3f", r.RadiusRatio),
		)
	}
	return t
}
