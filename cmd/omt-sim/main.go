// Command omt-sim builds a minimum-delay multicast tree and runs the
// discrete-event overlay simulator over it: packet propagation, optional
// node failures, and subtree repair.
//
//	omt-sim -n 1000 -degree 6 -seed 1 -packets 5 -fail 3 -repair bestdelay
//
// It prints the simulated delivery (cross-checked against the analytic
// radius), the damage failures cause, and the post-repair delay.
//
// With -loss or -crash-rate, omt-sim instead runs the decentralized
// protocol over a fault-injected control plane: members join under message
// loss, -fail members crash without warning, heartbeat rounds run while the
// network misbehaves, and injection then stops so the overlay self-heals.
// It prints the degradation metrics (retries, timeouts, lost attempts,
// mid-operation crashes, coverage) and the healed tree's data-plane
// delivery ratio under the same link loss.
//
//	omt-sim -n 1000 -degree 6 -seed 1 -loss 0.2 -crash-rate 0.01 -fail 5
//
// -partition sides:start:heal splits the control plane into sides at the
// given maintenance round and heals it later: orphaned subtrees elect
// interim coordinators and keep serving joins in degraded mode, then a
// reconciliation pass re-grafts the islands after the heal. -join-rate
// throttles the mid-partition join storm with token-bucket admission
// control (excess joins queue, then shed with a retry-after hint).
//
//	omt-sim -n 300 -seed 3 -loss 0.05 -partition 2:2:8 -join-rate 2
//
// -drift RATE runs the kinetic-drift loop instead: members join reliably,
// coordinates then jump with the given per-epoch probability, periodic
// re-estimation sweeps refresh them, and the eq. 7 certificate monitor
// repairs the tree per -repair-policy (none, local, or full). It prints the
// sweep accounting, repair split, and the final certificate state.
//
//	omt-sim -n 1000 -degree 6 -seed 1 -drift 0.01 -repair-policy local
//
// -snapshot FILE checkpoints the protocol session's full state on exit as a
// versioned, checksummed, byte-deterministic snapshot (requires a protocol
// run: -loss, -crash-rate, -partition, -drift, or -restore), replacing FILE
// atomically through a temporary file and a rename. -restore FILE resumes a
// checkpointed session instead of starting fresh: the snapshot is decoded
// and validated before anything else happens, maintenance continues on the
// recorded round clock until the audit is clean again, and the resumed
// radius is printed. A torn or corrupt snapshot is rejected by checksum with
// an error, never a panic. -restore and -snapshot may name the same file.
//
//	omt-sim -n 300 -seed 3 -loss 0.2 -fail 3 -snapshot sess.omts
//	omt-sim -restore sess.omts
//
// -metrics FILE writes a JSON metrics snapshot (build-phase spans, protocol
// and data-plane counters) on exit; -trace FILE writes a Chrome trace-event
// JSON timeline (load it in Perfetto or chrome://tracing) and -trace-text
// FILE the same timeline as deterministic plain text; -pprof ADDR serves
// net/http/pprof on the given address for live profiling.
//
// -flight FILE attaches a flight recorder: every maintenance round (or
// every -flight-interval rounds) the metrics registry is sampled into a
// bounded ring with per-series rates, -slo RULES watches the samples
// against declarative health rules (fired alerts land in the samples and
// the trace timeline), the retained ring is written to FILE as JSONL on
// exit, and a deterministic text health report is appended to stdout.
// -openmetrics FILE writes the final registry state as Prometheus/
// OpenMetrics exposition text for external scrapers.
//
//	omt-sim -n 800 -seed 9 -drift 0.003 -repair-policy none \
//	        -flight flight.jsonl -slo 'cert: protocol/certificate_ratio > 1.15 for 2'
//
// All are off by default and change nothing about the simulated results.
// Every flag and the -restore file are checked first; output files are then
// created up front, so a rejected command line touches no file and an
// unwritable path fails before the run starts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"omtree"
	"omtree/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "omt-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("omt-sim", flag.ContinueOnError)
	n := fs.Int("n", 1000, "number of receivers")
	degree := fs.Int("degree", 6, "max out-degree")
	seed := fs.Uint64("seed", 1, "random seed")
	packets := fs.Int("packets", 5, "packets per session")
	failCount := fs.Int("fail", 0, "number of internal nodes to fail mid-session")
	repairFlag := fs.String("repair", "bestdelay", "repair strategy: grandparent or bestdelay")
	procDelay := fs.Float64("proc", 0, "per-hop forwarding delay")
	loss := fs.Float64("loss", 0, "control/data message loss probability in [0, 1)")
	crashRate := fs.Float64("crash-rate", 0, "per-message chance the destination crashes, in [0, 1)")
	partitionSpec := fs.String("partition", "", "schedule a network split as sides:start:heal (maintenance-round numbers), e.g. 2:2:8")
	joinRate := fs.Float64("join-rate", 0, "admit at most this many joins per maintenance round during the partition join storm (0 = unthrottled; requires -partition)")
	driftRate := fs.Float64("drift", 0, "per-epoch coordinate jump probability; runs the kinetic-drift loop")
	repairPolicy := fs.String("repair-policy", "local", "kinetic repair policy: none, local, or full (requires -drift)")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON timeline (Perfetto-loadable) to this file on exit")
	traceTextPath := fs.String("trace-text", "", "write a plain-text event timeline to this file on exit")
	flightPath := fs.String("flight", "", "record flight samples (registry snapshots per maintenance round) and write them to this file as JSONL on exit")
	flightInterval := fs.Int("flight-interval", 1, "sample every N maintenance rounds (requires -flight)")
	sloSpec := fs.String("slo", "", "';'-joined SLO rules watched per flight sample, e.g. 'cert: protocol/certificate_ratio > 1.15 for 3' (requires -flight)")
	openMetricsPath := fs.String("openmetrics", "", "write the final registry state as OpenMetrics exposition text to this file on exit")
	snapshotPath := fs.String("snapshot", "", "checkpoint the final protocol session state to this file as a restorable snapshot (requires -loss, -crash-rate, -partition, -drift, or -restore)")
	restorePath := fs.String("restore", "", "resume a checkpointed protocol session from this snapshot file instead of starting fresh")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Crash-safe checkpointing only applies to a live protocol session; the
	// reliable build path has no session state to checkpoint.
	if *snapshotPath != "" && *loss == 0 && *crashRate == 0 && *partitionSpec == "" &&
		*driftRate == 0 && *restorePath == "" {
		return fmt.Errorf("-snapshot requires a protocol run (-loss, -crash-rate, -partition, -drift, or -restore)")
	}
	if *restorePath != "" && (*loss > 0 || *crashRate > 0 || *partitionSpec != "" || *driftRate > 0) {
		return fmt.Errorf("-restore does not combine with -loss, -crash-rate, -partition, or -drift")
	}
	pe, err := parsePartition(*partitionSpec)
	if err != nil {
		return err
	}
	if *joinRate > 0 && pe == nil {
		return fmt.Errorf("-join-rate requires -partition")
	}
	faulty := *loss > 0 || *crashRate > 0 || pe != nil
	var policy omtree.OverlayRepairPolicy
	var strategy omtree.RepairStrategy
	switch {
	case *restorePath != "":
	case *driftRate > 0:
		if faulty {
			return fmt.Errorf("-drift does not combine with -loss, -crash-rate, or -partition")
		}
		if policy, err = omtree.ParseOverlayRepairPolicy(*repairPolicy); err != nil {
			return err
		}
	default:
		policySet := false
		fs.Visit(func(f *flag.Flag) { policySet = policySet || f.Name == "repair-policy" })
		if policySet {
			return fmt.Errorf("-repair-policy requires -drift")
		}
		if faulty {
			break
		}
		switch *repairFlag {
		case "grandparent":
			strategy = omtree.RepairGrandparent
		case "bestdelay":
			strategy = omtree.RepairBestDelay
		default:
			return fmt.Errorf("unknown repair strategy %q", *repairFlag)
		}
	}
	// The checkpoint is an input: decode it before any output is created,
	// so a torn or corrupt one leaves every output path as it was.
	var restored *omtree.Overlay
	if *restorePath != "" {
		if restored, err = omtree.RestoreOverlayFile(*restorePath); err != nil {
			return fmt.Errorf("-restore: %w", err)
		}
	}

	outputs := cliutil.Outputs{
		Metrics: *metricsPath, Trace: *tracePath, TraceText: *traceTextPath,
		Flight: *flightPath, FlightInterval: *flightInterval, SLO: *sloSpec,
		OpenMetrics: *openMetricsPath, Snapshot: *snapshotPath, Pprof: *pprofAddr,
	}
	return cliutil.Run(fs, outputs, out, func(env *cliutil.Env) error {
		var err error
		switch {
		case restored != nil:
			env.Overlay = restored
			err = runRestore(out, env, restored)
		case *driftRate > 0:
			env.Overlay, err = runDrift(out, env, *n, *degree, *seed, *driftRate, policy)
		case faulty:
			env.Overlay, err = runFaulty(out, env, *n, *degree, *packets, *failCount, *seed, *loss, *crashRate, pe, *joinRate)
		default:
			err = runReliable(out, env, *n, *degree, *packets, *failCount, *seed, *procDelay, strategy, *repairFlag)
		}
		return err
	})
}

// runReliable builds the tree centrally, simulates its delivery, and with
// -fail crashes internal nodes mid-session and repairs around them.
func runReliable(out io.Writer, env *cliutil.Env, n, degree, packets, failCount int, seed uint64, procDelay float64, strategy omtree.RepairStrategy, strategyName string) error {
	// Register the protocol schema even on the reliable path, so every
	// snapshot carries the same counter set (zeros when no session ran).
	var sessionStats omtree.OverlaySessionStats
	omtree.RegisterSessionMetrics(env.Reg, &sessionStats)

	r := omtree.NewRand(seed)
	receivers := r.UniformDiskN(n, 1)
	source := omtree.Point2{}
	res, err := omtree.Build(source, receivers,
		omtree.WithMaxOutDegree(degree), omtree.WithObserver(env.Reg),
		omtree.WithTrace(env.Trace), omtree.WithFlight(env.Flight))
	if err != nil {
		return err
	}
	dist := omtree.Dist(source, receivers)
	fmt.Fprintf(out, "tree: %d nodes, variant %v, k=%d, radius %.4f (bound %.4f)\n",
		res.Tree.N(), res.Variant, res.K, res.Radius, res.Bound)

	sim, err := omtree.NewSim(res.Tree, omtree.SimConfig{Latency: dist, ProcDelay: procDelay, Obs: env.Reg, Trace: env.Trace})
	if err != nil {
		return err
	}
	d := sim.Multicast()
	fmt.Fprintf(out, "simulated delivery: max delay %.4f, %d forwards\n", d.MaxDelay, d.Forwards)
	if procDelay == 0 && !almost(d.MaxDelay, res.Radius) {
		return fmt.Errorf("simulation disagrees with analytic radius: %v vs %v", d.MaxDelay, res.Radius)
	}

	if failCount <= 0 {
		return nil
	}

	// Fail the first internal (forwarding) nodes mid-session.
	var failed []int
	for i := 1; i < res.Tree.N() && len(failed) < failCount; i++ {
		if res.Tree.OutDegree(i) > 0 {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		return fmt.Errorf("no internal nodes to fail")
	}
	failures := make([]omtree.Failure, 0, len(failed))
	interval := 2 * res.Radius
	failTime := float64(packets/2) * interval
	for _, f := range failed {
		failures = append(failures, omtree.Failure{Node: f, Time: failTime})
	}
	session := sim.Session(packets, interval, failures)
	var affected, lostTotal int
	for i, lost := range session.Lost {
		if lost > 0 && i != res.Tree.Root() {
			affected++
			lostTotal += lost
		}
	}
	fmt.Fprintf(out, "failures: %d internal nodes at t=%.2f -> %d receivers lost %d packets total\n",
		len(failed), failTime, affected, lostTotal)

	rep, err := omtree.Repair(res.Tree, failed, degree, dist, strategy)
	if err != nil {
		return err
	}
	repairedDist := func(a, b int) float64 { return dist(rep.OldID[a], rep.OldID[b]) }
	repairedRadius := rep.Tree.Radius(repairedDist)
	fmt.Fprintf(out, "repair (%s): %d orphan subtrees reattached, radius %.4f -> %.4f (%.1f%% change)\n",
		strategyName, rep.Reattached, res.Radius, repairedRadius,
		100*(repairedRadius-res.Radius)/res.Radius)

	repairedSim, err := omtree.NewSim(rep.Tree, omtree.SimConfig{Latency: repairedDist, ProcDelay: procDelay, Obs: env.Reg, Trace: env.Trace})
	if err != nil {
		return err
	}
	d2 := repairedSim.Multicast()
	missing := 0
	for _, got := range d2.Received {
		if !got {
			missing++
		}
	}
	fmt.Fprintf(out, "post-repair delivery: max delay %.4f, %d survivors missing\n", d2.MaxDelay, missing)
	return nil
}

// runRestore resumes a checkpointed protocol session: maintenance
// continues on the recorded round clock until the strict audit passes
// again, and the resumed state is reported.
func runRestore(out io.Writer, env *cliutil.Env, o *omtree.Overlay) error {
	o.Observe(env.Reg)
	o.Trace(env.Trace)
	o.SetFlight(env.Flight)
	st := &o.Stats
	fmt.Fprintf(out, "restored session: %d live members after %d maintenance rounds (%d joins, %d leaves, %d abrupt failures)\n",
		o.N(), st.MaintenanceRounds, st.Joins, st.Leaves, st.AbruptFailures)
	// The checkpoint may hold mid-churn damage (a crash the detector had not
	// confirmed yet); converge back to a clean audit on the recorded clock.
	rounds, err := o.Converge(24)
	if err != nil {
		return err
	}
	radius, err := o.Radius()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "resumed: audit clean after %d rounds (round clock now %d), radius %.4f\n",
		rounds, st.MaintenanceRounds, radius)
	return nil
}

// runDrift exercises the kinetic control loop: a reliably built overlay's
// coordinates jump under a seeded drift model while periodic re-estimation
// sweeps refresh them and the certificate monitor repairs per policy.
func runDrift(out io.Writer, env *cliutil.Env, n, degree int, seed uint64, rate float64, policy omtree.OverlayRepairPolicy) (*omtree.Overlay, error) {
	const (
		period    = 3
		threshold = 1.05
		rounds    = 24
	)
	o, err := omtree.NewOverlay(omtree.OverlayConfig{
		Source: omtree.Point2{}, Scale: 1,
		K: omtree.SuggestOverlayK(n), MaxOutDegree: degree,
		Drift: omtree.OverlayDriftConfig{
			ReestimatePeriod:     period,
			DegradationThreshold: threshold,
			Policy:               policy,
		},
	})
	if err != nil {
		return nil, err
	}
	o.Observe(env.Reg)
	o.Trace(env.Trace)
	o.SetFlight(env.Flight)
	r := omtree.NewRand(seed)
	for i := 0; i < n; i++ {
		if _, _, err := o.Join(r.UniformDisk(1)); err != nil {
			return nil, err
		}
	}
	if _, err := o.Rebuild(); err != nil {
		return nil, err
	}
	cert := o.Certificate()
	fmt.Fprintf(out, "kinetic drift: %d members, jump rate %.3f/epoch, policy %v, re-estimation every %d rounds\n",
		n, rate, policy, period)
	fmt.Fprintf(out, "certified at build: radius %.4f, eq. 7 bound %.4f\n", cert.Radius, cert.Bound)

	// Bound 0.99 keeps drifted positions strictly inside the membership's
	// outermost radius, so jumps relocate members between grid cells instead
	// of forcing grid-scale growth.
	m, err := omtree.NewDriftModel(omtree.DriftModelConfig{
		Seed: seed, JumpRate: rate, JumpMean: 0.15,
		InflationPerEpoch: 0.05, Bound: 0.99,
	})
	if err != nil {
		return nil, err
	}
	if err := o.SetDrift(m); err != nil {
		return nil, err
	}
	worst := 0.0
	for i := 0; i < rounds; i++ {
		ms, err := o.MaintenanceRound()
		if err != nil {
			return nil, err
		}
		if ms.CertRatio > worst {
			worst = ms.CertRatio
		}
	}

	st := &o.Stats
	fmt.Fprintf(out, "drift: %d re-estimation sweeps over %d rounds applied %d node moves\n",
		st.DriftReestimates, rounds, st.DriftedNodes)
	fmt.Fprintf(out, "repairs: %d local, %d full-rebuild fallbacks, %d rebuild messages + %d drift messages\n",
		st.LocalRepairs, st.FullRebuildFallbacks, st.RebuildMessages, st.DriftMessages)
	cert = o.Certificate()
	ratio, armed := o.CertificateRatio()
	if !armed {
		return nil, fmt.Errorf("certificate unarmed after %d rounds", rounds)
	}
	fmt.Fprintf(out, "certificate: realized radius %.4f vs certified %.4f (ratio %.3f, worst %.3f), eq. 7 bound %.4f\n",
		o.RealizedRadius(), cert.Radius, ratio, worst, cert.Bound)
	if err := o.Audit(); err != nil {
		return nil, fmt.Errorf("audit after drift run: %w", err)
	}
	fmt.Fprintln(out, "audit: clean")
	return o, nil
}

// parsePartition decodes a sides:start:heal schedule spec; an empty spec
// yields nil (no partition). Range validation happens in SetSchedule.
func parsePartition(s string) (*omtree.PartitionEvent, error) {
	if s == "" {
		return nil, nil
	}
	var pe omtree.PartitionEvent
	if _, err := fmt.Sscanf(s, "%d:%d:%d", &pe.Sides, &pe.Start, &pe.Heal); err != nil {
		return nil, fmt.Errorf("-partition: want sides:start:heal, got %q", s)
	}
	return &pe, nil
}

// runFaulty exercises the decentralized protocol over a fault-injected
// control plane and reports degradation and recovery. With a partition
// schedule it additionally splits the network mid-run, storms joins at the
// degraded overlay, and reports island formation and reconciliation.
func runFaulty(out io.Writer, env *cliutil.Env, n, degree, packets, failCount int, seed uint64, loss, crashRate float64, pe *omtree.PartitionEvent, joinRate float64) (*omtree.Overlay, error) {
	fmt.Fprintf(out, "unreliable control plane: loss %.0f%%, duplication %.0f%%, crash rate %.2f%%\n",
		100*loss, 100*loss/2, 100*crashRate)

	o, err := omtree.NewOverlay(omtree.OverlayConfig{
		Source: omtree.Point2{}, Scale: 1,
		K: omtree.SuggestOverlayK(n), MaxOutDegree: degree,
	})
	if err != nil {
		return nil, err
	}
	plane, err := omtree.NewFaultPlane(omtree.FaultScenario{
		Seed: seed, LossRate: loss, DupRate: loss / 2,
		CrashRate: crashRate, DelayMean: 0.1,
	})
	if err != nil {
		return nil, err
	}
	fcfg := omtree.DefaultOverlayFaultConfig()
	if err := o.SetTransport(plane, fcfg); err != nil {
		return nil, err
	}
	o.Observe(env.Reg)
	plane.Observe(env.Reg)
	o.Trace(env.Trace)
	o.SetFlight(env.Flight)

	// Members join while the network misbehaves; some give up after
	// exhausting their retry budget.
	r := omtree.NewRand(seed)
	refused := 0
	live := make([]int, 0, n)
	for i := 0; i < n; i++ {
		id, _, err := o.Join(r.UniformDisk(1))
		if err != nil {
			refused++
			continue
		}
		live = append(live, id)
	}

	// Crash -fail members without warning, then run heartbeat rounds with
	// injection still active.
	crashed := 0
	for crashed < failCount && len(live) > 0 {
		pick := r.Intn(len(live))
		id := live[pick]
		live[pick] = live[len(live)-1]
		live = live[:len(live)-1]
		// A mid-operation crash may have taken the node already.
		if o.FailAbrupt(id) == nil {
			crashed++
		}
	}
	if pe == nil {
		for i := 0; i < 2; i++ {
			if _, err := o.MaintenanceRound(); err != nil {
				return nil, err
			}
		}
	} else {
		if err := plane.SetSchedule([]omtree.PartitionEvent{*pe}); err != nil {
			return nil, err
		}
		if joinRate > 0 {
			if err := o.SetAdmission(omtree.OverlayAdmission{RatePerRound: joinRate}); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(out, "partition: %d-way split at round %d, healing at round %d\n",
			pe.Sides, pe.Start, pe.Heal)
		// Run the schedule through its heal, storming joins while split.
		peak := 0
		for plane.Ticks() <= pe.Heal {
			ms, err := o.MaintenanceRound()
			if err != nil {
				return nil, err
			}
			if ms.Islands > peak {
				peak = ms.Islands
			}
			if t := plane.Ticks(); t >= pe.Start && t < pe.Heal {
				for i := 0; i < 3; i++ {
					o.Join(r.UniformDisk(1)) // degraded, queued, shed, or refused
				}
			}
		}
		fmt.Fprintf(out, "partition: peak %d islands; joins %d degraded, %d queued (%d admitted), %d shed; %d merges, %d reconciliations\n",
			peak, o.Stats.DegradedJoins, o.Stats.JoinsQueued, o.Stats.QueuedAdmitted,
			o.Stats.JoinsShed, o.Stats.IslandMerges, o.Stats.Reconciliations)
	}

	st := &o.Stats
	fmt.Fprintf(out, "joins: %d admitted, %d gave up; %d crashed by operator, %d mid-operation\n",
		n-refused, refused, crashed, st.InjectedCrashes)
	fmt.Fprintf(out, "transport: %d retries, %d timeouts, %d attempts lost, %d duplicates delivered\n",
		st.Retries, st.Timeouts, st.MessagesLost, st.DuplicatesDelivered)
	fmt.Fprintf(out, "degraded coverage: %.1f%% of live members reachable from the source\n",
		100*o.CoverageRatio())

	// Injection stops; the heartbeat detector converges the overlay back to
	// a clean audit.
	plane.SetActive(false)
	rounds, err := o.Converge(fcfg.ConfirmAfter + 12)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "self-heal: audit clean after %d rounds (%d false suspicions, %d false confirms, %d elections)\n",
		rounds, st.FalseSuspects, st.FalseConfirms, st.RepElections)

	// Data plane on the healed tree, links dropping at the same rate.
	t, pts, _, err := o.Snapshot()
	if err != nil {
		return nil, err
	}
	radius := t.Radius(func(i, j int) float64 { return pts[i].Dist(pts[j]) })
	sim, err := omtree.NewSim(t, omtree.SimConfig{
		Latency: func(i, j int) float64 { return pts[i].Dist(pts[j]) },
		Drop:    omtree.LinkDrop(seed^0xd07a, loss),
		Obs:     env.Reg,
		Trace:   env.Trace,
	})
	if err != nil {
		return nil, err
	}
	session := sim.Session(packets, 2*radius, nil)
	missed, drops, forwards := 0, 0, 0
	for _, l := range session.Lost {
		missed += l
	}
	for _, d := range session.Deliveries {
		drops += d.LinkDrops
		forwards += d.Forwards
	}
	ratio := 1.0
	if recvs := t.N() - 1; recvs > 0 {
		ratio = 1 - float64(missed)/float64(packets*recvs)
	}
	fmt.Fprintf(out, "data plane: %d members, radius %.4f; %d/%d transmissions dropped -> %.2f%% of deliveries made\n",
		t.N()-1, radius, drops, forwards, 100*ratio)
	return o, nil
}

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
