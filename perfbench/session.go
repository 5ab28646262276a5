package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"omtree/internal/coords"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/protocol"
	"omtree/internal/snapshot"
)

// The session workload: a 100k-member overlay under drift, replayed from
// one checkpoint every epoch.
const (
	sessionMembers = 100_000
	sessionChurn   = 2_000 // leaves, then as many joins, per epoch
	sessionRounds  = 8
	sessionLoss    = 0.02
)

// runSession times coordinator epochs over a live overlay. Set-up builds
// the overlay, arms its certificate, attaches a drift model and checkpoints
// it; every epoch restores that checkpoint, attaches a fresh fault plane
// with the same seed, and replays the same churn script, so epochs repeat
// exactly.
func runSession(h *harness) error {
	var (
		blob   []byte
		leaves []int
		joins  []geom.Point2
	)
	err := h.setup(func() error {
		o, err := protocol.New(protocol.Config{
			Scale: 1, K: protocol.SuggestK(sessionMembers), MaxOutDegree: 6,
			Drift: protocol.DriftConfig{ReestimatePeriod: 4, DegradationThreshold: 0.5, FullRebuildCutoff: 1, Policy: protocol.RepairLocal},
		})
		if !h.op(err) {
			return err
		}
		for _, p := range uniformDisk(newRand(h.seed, streamPoints), sessionMembers) {
			if _, _, err := o.Join(p); err != nil {
				h.op(err)
				return err
			}
		}
		h.attempted += sessionMembers
		if _, err := o.Rebuild(); !h.op(err) {
			return err
		}
		dm, err := coords.NewDriftModel(coords.DriftConfig{
			Seed: h.seed, JumpRate: 0.002, JumpMean: 0.15,
			InflationPerEpoch: 0.05, Bound: 0.99,
		})
		if err == nil {
			err = o.SetDrift(dm)
		}
		if !h.op(err) {
			return err
		}
		var buf bytes.Buffer
		if err := o.WriteSnapshot(&buf); !h.op(err) {
			return err
		}
		if blob != nil {
			h.check(bytes.Equal(blob, buf.Bytes()), "set-up checkpoint differs between repetitions")
		}
		blob = buf.Bytes()
		r := newRand(h.seed, streamChurn)
		leaves = sample(r, sessionMembers, sessionChurn)
		for i := range leaves {
			leaves[i]++ // member ids start at 1; 0 is the source
		}
		joins = uniformDisk(r, sessionChurn)
		return nil
	})
	if err != nil {
		return err
	}

	var (
		epochs, traced, untraced, allocs                []float64
		restoreT, leaveT, joinT, rebuildT, checkpointT  []float64
		roundT, plainT, sweepT, probes                  []float64
		reestimated, repairsLocal, repairsFull          []float64
		joinMsgs, joinHops, rebuildMsgs, rebuildIncFrac []float64
		ctrl, delivered, retries, timeouts, openT, gcs  []float64
		heapPeak                                        float64
		checkpoint                                      bytes.Buffer
		crcTable                                        = crc32.MakeTable(crc32.Castagnoli)
	)
	n, err := h.loop(func(isTraced bool) error {
		endEpoch := h.tr.span("bench.epoch")
		m0 := readMem()
		t0 := time.Now()

		end := h.tr.span("snapshot.restore")
		o, err := protocol.RestoreBytes(blob)
		end()
		tRestore := time.Now()
		if !h.op(err) {
			return err
		}
		end = h.tr.span("faultplane.attach")
		plane, err := faultplane.New(faultplane.Scenario{Seed: h.seed, LossRate: sessionLoss})
		if err == nil {
			err = o.SetTransport(plane, protocol.DefaultFaultConfig())
		}
		end()
		if !h.op(err) {
			return err
		}
		before := o.Stats

		end = h.tr.span("protocol.leaves")
		tl := time.Now()
		for _, id := range leaves {
			if _, err := o.Leave(id); err != nil {
				h.op(err)
				return err
			}
		}
		leaveDur := time.Since(tl)
		end()

		var msgs, hops int
		end = h.tr.span("protocol.joins")
		tj := time.Now()
		for _, p := range joins {
			_, st, err := o.Join(p)
			if err != nil {
				h.op(err)
				return err
			}
			msgs += st.Messages
			hops += st.CoreHops
		}
		joinDur := time.Since(tj)
		end()
		h.attempted += len(leaves) + len(joins)

		type round struct {
			dur time.Duration
			st  protocol.MaintenanceStats
		}
		var rounds [sessionRounds]round
		for i := range rounds {
			end = h.tr.span("protocol.round")
			tr := time.Now()
			st, err := o.MaintenanceRound()
			rounds[i] = round{time.Since(tr), st}
			end()
			if !h.op(err) {
				return err
			}
		}

		end = h.tr.span("protocol.rebuild")
		tb := time.Now()
		rst, err := o.Rebuild()
		rebuildDur := time.Since(tb)
		end()
		if !h.op(err) {
			return err
		}

		end = h.tr.span("snapshot.checkpoint")
		tc := time.Now()
		checkpoint.Reset()
		err = o.WriteSnapshot(&checkpoint)
		tEnd := time.Now()
		end()
		m1 := readMem()
		endEpoch()
		if !h.op(err) {
			return err
		}

		// Outputs, checked outside the timers.
		end = h.tr.span("bench.check")
		after := o.Stats
		members := float64(o.N())
		aerr := o.Audit()
		h.check(aerr == nil, "audit after the epoch's rebuild: %v", aerr)
		cert := o.Certificate()
		h.check(cert.Radius <= cert.Bound, "radius %v exceeds the certificate bound %v", cert.Radius, cert.Bound)
		h.same("radius_over_bound", cert.Radius/cert.Bound)
		attempts := float64(after.Attempts - before.Attempts)
		h.same("ctrl_msgs_per_member", attempts/members)
		h.same("checkpoint_crc32c", float64(crc32.Checksum(checkpoint.Bytes(), crcTable)))
		again, err := protocol.RestoreBytes(blob)
		if h.op(err) {
			again.Stats.Restores-- // the restore counts itself; the blob predates it
			var re bytes.Buffer
			err = again.WriteSnapshot(&re)
			h.check(err == nil && bytes.Equal(re.Bytes(), blob), "restored session does not re-encode to its checkpoint")
		}
		end()

		epochDur := ms(tEnd.Sub(t0))
		epochs = append(epochs, epochDur)
		allocs = append(allocs, float64(m1.alloc-m0.alloc)/members)
		if h.tr == nil {
			return nil
		}
		if !isTraced {
			untraced = append(untraced, epochDur)
			return nil
		}
		traced = append(traced, epochDur)
		gcs = append(gcs, float64(m1.gcs-m0.gcs))
		heapPeak = math.Max(heapPeak, float64(m1.heap)/1e6)
		restoreT = append(restoreT, ms(tRestore.Sub(t0)))
		leaveT = append(leaveT, float64(leaveDur)/1e3/float64(len(leaves)))
		joinT = append(joinT, float64(joinDur)/1e3/float64(len(joins)))
		joinMsgs = append(joinMsgs, float64(msgs)/float64(len(joins)))
		joinHops = append(joinHops, float64(hops)/float64(len(joins)))
		for _, r := range rounds {
			d := ms(r.dur)
			roundT = append(roundT, d)
			probes = append(probes, float64(r.st.Probes))
			if r.st.Reestimated == 0 {
				plainT = append(plainT, d)
				continue
			}
			sweepT = append(sweepT, d)
			reestimated = append(reestimated, float64(r.st.Reestimated))
			repairsLocal = append(repairsLocal, float64(r.st.RepairedLocal))
			repairsFull = append(repairsFull, float64(r.st.RepairedFull))
		}
		rebuildT = append(rebuildT, ms(rebuildDur))
		rebuildMsgs = append(rebuildMsgs, float64(rst.Messages))
		rebuildIncFrac = append(rebuildIncFrac, float64(after.IncrementalRebuilds-before.IncrementalRebuilds)/
			float64(after.Rebuilds-before.Rebuilds))
		checkpointT = append(checkpointT, ms(tEnd.Sub(tc)))
		ctrl = append(ctrl, attempts/members)
		delivered = append(delivered, float64(after.AttemptsDelivered-before.AttemptsDelivered)/attempts)
		retries = append(retries, float64(after.Retries-before.Retries))
		timeouts = append(timeouts, float64(after.Timeouts-before.Timeouts))

		end = h.tr.span("snapshot.open")
		to := time.Now()
		_, _, err = snapshot.Open(blob)
		openT = append(openT, ms(time.Since(to)))
		end()
		h.op(err)
		return nil
	})
	if err != nil {
		return err
	}
	h.info = append(h.info, fmt.Sprintf("%d epochs over %d members: restore, %d leaves, %d joins, %d rounds at %.0f%% loss, rebuild, checkpoint",
		n, sessionMembers, len(leaves), len(joins), sessionRounds, 100*sessionLoss))

	h.timing(h.e2e, "epoch_ms", epochs, "ms")
	h.e2e["radius_over_bound"] = metric{h.fixed["radius_over_bound"], "ratio"}
	h.timing(h.e2e, "alloc_b_per_node", allocs, "B")
	if h.tr == nil {
		return nil
	}
	h.timing(h.layer, "snapshot.restore_ms", restoreT, "ms")
	h.timing(h.layer, "protocol.leave_us", leaveT, "us")
	h.timing(h.layer, "protocol.join_us", joinT, "us")
	h.timing(h.layer, "protocol.round_ms", roundT, "ms")
	h.tailMetric(h.layer, "protocol.round_tail_ms", roundT, "ms")
	h.timing(h.layer, "protocol.round_plain_ms", plainT, "ms")
	h.timing(h.layer, "protocol.round_sweep_ms", sweepT, "ms")
	h.timing(h.layer, "protocol.rebuild_ms", rebuildT, "ms")
	h.timing(h.layer, "snapshot.checkpoint_ms", checkpointT, "ms")
	h.timing(h.layer, "snapshot.open_ms", openT, "ms")
	h.layer["snapshot.blob_b_per_member"] = metric{float64(len(blob)) / sessionMembers, "B"}
	h.layer["protocol.ctrl_msgs_per_member"] = metric{median(ctrl), "count"}
	h.layer["protocol.join_msgs"] = metric{median(joinMsgs), "count"}
	h.layer["protocol.join_core_hops"] = metric{median(joinHops), "count"}
	h.layer["protocol.round_probes"] = metric{median(probes), "count"}
	h.layer["protocol.rebuild_msgs"] = metric{median(rebuildMsgs), "count"}
	h.layer["protocol.rebuild_incremental_frac"] = metric{median(rebuildIncFrac), "ratio"}
	h.layer["protocol.retries"] = metric{median(retries), "count"}
	h.layer["protocol.timeouts"] = metric{median(timeouts), "count"}
	h.layer["faultplane.delivered_frac"] = metric{median(delivered), "ratio"}
	h.layer["coords.reestimated"] = metric{median(reestimated), "count"}
	h.layer["core.repairs_local"] = metric{median(repairsLocal), "count"}
	h.layer["core.repairs_full"] = metric{median(repairsFull), "count"}
	h.layer["runtime.gc_cycles"] = metric{median(gcs), "count"}
	h.layer["runtime.heap_peak_mb"] = metric{heapPeak, "MB"}
	h.overhead(traced, untraced)
	return nil
}
