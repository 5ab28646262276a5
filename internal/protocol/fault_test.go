package protocol

import (
	"testing"

	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/rng"
)

// randomLiveNode picks a uniformly random live member (never the source),
// deterministically under the caller's rng stream. Returns -1 when only
// the source remains.
func randomLiveNode(o *Overlay, r *rng.Rand) int {
	var live []int
	for i := 1; i < len(o.nodes); i++ {
		if o.live[i] {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[r.Intn(len(live))]
}

// reliableJoin is a test helper for warm-up phases where a join must work.
func reliableJoin(t *testing.T, o *Overlay, p geom.Point2) {
	t.Helper()
	if _, _, err := o.Join(p); err != nil {
		t.Fatal(err)
	}
}

func TestSetTransportValidation(t *testing.T) {
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	bad := []FaultConfig{
		{Retry: RetryPolicy{MaxAttempts: 0, Backoff: 2}, SuspectAfter: 1, ConfirmAfter: 1},
		{Retry: RetryPolicy{MaxAttempts: 1, Backoff: 0.5}, SuspectAfter: 1, ConfirmAfter: 1},
		{Retry: RetryPolicy{MaxAttempts: 1, Backoff: 1, BaseTimeout: -1}, SuspectAfter: 1, ConfirmAfter: 1},
		{Retry: RetryPolicy{MaxAttempts: 1, Backoff: 1}, SuspectAfter: 0, ConfirmAfter: 1},
		{Retry: RetryPolicy{MaxAttempts: 1, Backoff: 1}, SuspectAfter: 3, ConfirmAfter: 2},
	}
	for i, cfg := range bad {
		if err := o.SetTransport(nil, cfg); err == nil {
			t.Errorf("case %d: accepted invalid fault config %+v", i, cfg)
		}
	}
	if err := o.SetTransport(nil, DefaultFaultConfig()); err != nil {
		t.Fatalf("rejected default fault config: %v", err)
	}
}

func TestExchangeRetryAccounting(t *testing.T) {
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	plane, err := faultplane.New(faultplane.Scenario{Seed: 5, LossRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
		t.Fatal(err)
	}
	_, st, err := o.Join(geom.Point2{X: 0.5, Y: 0})
	if err == nil {
		t.Fatal("join succeeded with LossRate 1")
	}
	want := DefaultFaultConfig().Retry.MaxAttempts
	if st.Messages != want {
		t.Errorf("messages = %d, want the full retry budget %d", st.Messages, want)
	}
	if st.Retries != want-1 || st.Timeouts != 1 || st.Lost != want {
		t.Errorf("retries/timeouts/lost = %d/%d/%d, want %d/1/%d",
			st.Retries, st.Timeouts, st.Lost, want-1, want)
	}
	if st.SimTime <= 0 {
		t.Error("timeouts consumed no simulated time")
	}
	if len(o.nodes) != 1 || o.N() != 1 {
		t.Errorf("failed join not rolled back: %d nodes", len(o.nodes))
	}
	if o.Stats.Retries != want-1 || o.Stats.Timeouts != 1 || o.Stats.MessagesLost != want {
		t.Errorf("session degradation stats wrong: %+v", o.Stats)
	}
}

func TestLeaveWithLostGoodbyeBecomesGhost(t *testing.T) {
	r := rng.New(21)
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	// Pick a member whose goodbye will vanish.
	var victim int32 = -1
	for i := 1; i < len(o.nodes); i++ {
		if o.live[i] && o.nodes[i].parent >= 0 {
			victim = int32(i)
			break
		}
	}
	parent := o.nodes[victim].parent
	plane, err := faultplane.New(faultplane.Scenario{Seed: 1, LossRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Leave(int(victim)); err != nil {
		t.Fatalf("lossy leave must not error (the member is gone regardless): %v", err)
	}
	if o.live[victim] {
		t.Fatal("leaver still alive")
	}
	// Nobody heard the goodbye: the state stays wired like a crash.
	wired := false
	for _, c := range o.nodes[parent].children {
		if c == victim {
			wired = true
		}
	}
	if !wired {
		t.Fatal("ghost was unwired despite the lost goodbye")
	}
	// Once the network recovers, the failure detector cleans the ghost
	// within its confirmation window.
	if err := o.SetTransport(nil, DefaultFaultConfig()); err != nil {
		t.Fatal(err)
	}
	rounds, err := o.Converge(o.fcfg.ConfirmAfter + 4)
	if err != nil {
		t.Fatalf("no convergence after %d rounds: %v", rounds, err)
	}
	if o.nodes[victim].parent != parentDead || len(o.nodes[victim].children) != 0 {
		t.Error("ghost not fully cleaned after convergence")
	}
	if o.Stats.MaintenanceRounds == 0 || o.Stats.Heartbeats == 0 {
		t.Errorf("maintenance accounting missing: %+v", o.Stats)
	}
}

// blackhole fails every message touching one victim node — the worst case
// for the failure detector: a live, well-behaved node that the network has
// isolated, which the detector will wrongly confirm dead.
type blackhole struct{ victim int32 }

func (b blackhole) Attempt(from, to int32) faultplane.Outcome {
	if from == b.victim || to == b.victim {
		return faultplane.Outcome{Lost: true}
	}
	return faultplane.Outcome{}
}

func (b blackhole) Jitter() float64 { return 0 }

func TestFalseConfirmDegradesGracefully(t *testing.T) {
	r := rng.New(31)
	o, err := New(sessionConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	// Isolate a mid-tree node with children.
	var victim int32 = -1
	for i := 1; i < len(o.nodes); i++ {
		if o.nodes[i].parent > 0 && len(o.nodes[i].children) > 0 {
			victim = int32(i)
			break
		}
	}
	if victim < 0 {
		t.Skip("no mid-tree node found")
	}
	cfg := DefaultFaultConfig()
	if err := o.SetTransport(blackhole{victim: victim}, cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*cfg.ConfirmAfter+1; i++ {
		if _, err := o.MaintenanceRound(); err != nil {
			t.Fatal(err)
		}
	}
	if o.Stats.FalseSuspects == 0 || o.Stats.FalseConfirms == 0 {
		t.Fatalf("victim never falsely confirmed: %+v", o.Stats)
	}
	if !o.live[victim] {
		t.Fatal("false confirmation killed a live node")
	}
	// The partition heals: one clean round resets suspicion and the
	// overlay audits clean — no corruption ever happened.
	if err := o.SetTransport(nil, cfg); err != nil {
		t.Fatal(err)
	}
	rounds, err := o.Converge(cfg.ConfirmAfter + 4)
	if err != nil {
		t.Fatalf("no convergence after %d rounds: %v", rounds, err)
	}
	if o.nodes[victim].susp != 0 {
		t.Error("suspicion not cleared after the partition healed")
	}
}

// TestDetectAndRepairSameSweepParentChild is the regression test for the
// old sweep's confusing parent-cleanup branch: a node and its parent dying
// in the same sweep must both end fully cleaned, in either id order (the
// sweep runs in ascending id, so both "parent processed first" and "child
// processed first" must work).
func TestDetectAndRepairSameSweepParentChild(t *testing.T) {
	run := func(t *testing.T, invert bool) {
		r := rng.New(77)
		o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			reliableJoin(t, o, r.UniformDisk(1))
		}
		var child, parent int32 = -1, -1
		if invert {
			// Wire a low id under a high id so the sweep visits the child
			// before its (dead) parent.
			for x := int32(1); x < int32(len(o.nodes)) && child < 0; x++ {
				for y := int32(len(o.nodes)) - 1; y > x; y-- {
					if o.nodes[x].parent != y && o.residual(y) > 0 && !o.isDescendant(y, x) {
						o.moveSubtree(x, y)
						child, parent = x, y
						break
					}
				}
			}
		} else {
			for c := int32(1); c < int32(len(o.nodes)); c++ {
				if p := o.nodes[c].parent; p > 0 {
					child, parent = c, p
					break
				}
			}
		}
		if child < 0 {
			t.Fatal("no suitable parent-child pair found")
		}
		if err := o.FailAbrupt(int(child)); err != nil {
			t.Fatal(err)
		}
		if err := o.FailAbrupt(int(parent)); err != nil {
			t.Fatal(err)
		}
		if _, err := o.DetectAndRepair(); err != nil {
			t.Fatal(err)
		}
		if err := o.Audit(); err != nil {
			t.Fatalf("audit after same-sweep repair: %v", err)
		}
		for _, id := range []int32{child, parent} {
			if o.nodes[id].parent != parentDead || len(o.nodes[id].children) != 0 {
				t.Errorf("node %d not fully cleaned: parent=%d children=%v",
					id, o.nodes[id].parent, o.nodes[id].children)
			}
		}
		st, err := o.DetectAndRepair()
		if err != nil {
			t.Fatal(err)
		}
		if st.Messages != 0 {
			t.Errorf("second sweep cost %d messages", st.Messages)
		}
	}
	t.Run("parent-first", func(t *testing.T) { run(t, false) })
	t.Run("child-first", func(t *testing.T) { run(t, true) })
}

func TestMaintenanceRoundDetectsCrashes(t *testing.T) {
	// The heartbeat detector alone (no eager DetectAndRepair sweep) must
	// find and repair abrupt failures within its confirmation window, even
	// under the reliable default transport.
	r := rng.New(41)
	o, err := New(sessionConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		reliableJoin(t, o, r.UniformDisk(1))
	}
	crashed := 0
	for i := 1; i < len(o.nodes) && crashed < 4; i++ {
		if len(o.nodes[i].children) > 0 {
			if err := o.FailAbrupt(i); err != nil {
				t.Fatal(err)
			}
			crashed++
		}
	}
	if err := o.Audit(); err == nil {
		t.Fatal("audit passed with forwarding ghosts still wired")
	}
	cfg := DefaultFaultConfig()
	rounds, err := o.Converge(cfg.ConfirmAfter + 4)
	if err != nil {
		t.Fatalf("no convergence after %d rounds: %v", rounds, err)
	}
	if rounds < cfg.ConfirmAfter {
		t.Errorf("converged in %d rounds — confirmation should take at least %d",
			rounds, cfg.ConfirmAfter)
	}
	if cr := o.CoverageRatio(); cr != 1 {
		t.Errorf("coverage %v after convergence", cr)
	}
	if o.Stats.FalseConfirms != 0 {
		t.Errorf("reliable network produced %d false confirms", o.Stats.FalseConfirms)
	}
}

// chaosOutcome captures everything two identically-seeded runs must agree
// on: the final wiring, who is alive, every counter, and the injected
// fault schedule.
type chaosOutcome struct {
	parents []int32
	alive   []bool
	rounds  int
	stats   SessionStats
	plane   faultplane.Stats
}

// runChaos drives a seeded churn workload through a fault-injecting
// transport, stops injection, and requires bounded-round convergence to a
// fully audited tree.
func runChaos(t *testing.T, seed uint64, loss float64) chaosOutcome {
	t.Helper()
	o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 3, MaxOutDegree: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed ^ 0x9e3779b97f4a7c15)
	for i := 0; i < 30; i++ { // warm membership under a reliable network
		reliableJoin(t, o, r.UniformDisk(1))
	}
	plane, err := faultplane.New(faultplane.Scenario{
		Seed:      seed,
		LossRate:  loss,
		DupRate:   0.1,
		CrashRate: 0.02,
		DelayMean: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultFaultConfig()
	if err := o.SetTransport(plane, cfg); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 150; step++ {
		switch x := r.Float64(); {
		case x < 0.5:
			o.Join(r.UniformDisk(1)) // may fail under faults; that's the point
		case x < 0.7:
			if id := randomLiveNode(o, r); id > 0 {
				o.Leave(id) // goodbye may vanish; leaves a ghost
			}
		case x < 0.8:
			if id := randomLiveNode(o, r); id > 0 {
				if err := o.FailAbrupt(id); err != nil {
					t.Fatal(err)
				}
			}
		default:
			if _, err := o.MaintenanceRound(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Injection stops; the overlay must self-heal in bounded rounds.
	plane.SetActive(false)
	bound := cfg.ConfirmAfter + 12
	rounds, err := o.Converge(bound)
	if err != nil {
		t.Fatalf("seed %d loss %.2f: not converged after %d rounds: %v", seed, loss, rounds, err)
	}
	if cr := o.CoverageRatio(); cr != 1 {
		t.Fatalf("seed %d loss %.2f: coverage %v after convergence", seed, loss, cr)
	}

	out := chaosOutcome{
		parents: make([]int32, len(o.nodes)),
		alive:   make([]bool, len(o.nodes)),
		rounds:  rounds,
		stats:   o.Stats,
		plane:   plane.Stats,
	}
	for i := range o.nodes {
		out.parents[i] = o.nodes[i].parent
		out.alive[i] = o.live[i]
	}
	return out
}

func TestChaosConvergenceProperty(t *testing.T) {
	for _, loss := range []float64{0.1, 0.2, 0.3} {
		for seed := uint64(1); seed <= 3; seed++ {
			a := runChaos(t, seed, loss)
			if a.stats.MessagesLost == 0 {
				t.Errorf("seed %d loss %.2f: injector never fired", seed, loss)
			}
			// Identical seeds reproduce identical traces and final trees.
			b := runChaos(t, seed, loss)
			if a.rounds != b.rounds || a.stats != b.stats || a.plane != b.plane {
				t.Fatalf("seed %d loss %.2f: replay diverged:\n%+v rounds %d\n%+v rounds %d",
					seed, loss, a.stats, a.rounds, b.stats, b.rounds)
			}
			if len(a.parents) != len(b.parents) {
				t.Fatalf("seed %d loss %.2f: node counts differ", seed, loss)
			}
			for i := range a.parents {
				if a.parents[i] != b.parents[i] || a.alive[i] != b.alive[i] {
					t.Fatalf("seed %d loss %.2f: node %d differs on replay", seed, loss, i)
				}
			}
		}
	}
}

func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(30), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(7), uint8(12), []byte("join-leave-fail-round"))
	f.Add(uint64(99), uint8(0), []byte{2, 2, 2, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed uint64, loss8 uint8, sched []byte) {
		if len(sched) > 200 {
			sched = sched[:200]
		}
		loss := float64(loss8%31) / 100 // up to 30% loss
		o, err := New(Config{Source: geom.Point2{}, Scale: 1, K: 2, MaxOutDegree: 4})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		for i := 0; i < 10; i++ {
			reliableJoin(t, o, r.UniformDisk(1))
		}
		plane, err := faultplane.New(faultplane.Scenario{
			Seed: seed, LossRate: loss, DupRate: 0.05, CrashRate: 0.02, DelayMean: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultFaultConfig()
		if err := o.SetTransport(plane, cfg); err != nil {
			t.Fatal(err)
		}
		for _, b := range sched {
			switch b % 4 {
			case 0:
				o.Join(r.UniformDisk(1))
			case 1:
				if id := randomLiveNode(o, r); id > 0 {
					o.Leave(id)
				}
			case 2:
				if id := randomLiveNode(o, r); id > 0 {
					o.FailAbrupt(id)
				}
			case 3:
				if _, err := o.MaintenanceRound(); err != nil {
					t.Fatal(err)
				}
			}
		}
		plane.SetActive(false)
		if rounds, err := o.Converge(cfg.ConfirmAfter + 12); err != nil {
			t.Fatalf("not converged after %d rounds: %v", rounds, err)
		}
		if cr := o.CoverageRatio(); cr != 1 {
			t.Fatalf("coverage %v after convergence", cr)
		}
	})
}

// TestReliableJoinCountsAsLosslessPlane pins the reliable default's cost
// model to the transport's: every join step is one exchange, so 3,000
// joins report the same per-join messages, the same attempts and the same
// tree whether no transport is attached or a plane that never loses,
// duplicates or delays a message is.
func TestReliableJoinCountsAsLosslessPlane(t *testing.T) {
	pts := rng.New(5).UniformDiskN(3000, 1)
	session := func(lossless bool) (*Overlay, []int) {
		t.Helper()
		o, err := New(sessionConfig(SuggestK(len(pts))))
		if err != nil {
			t.Fatal(err)
		}
		if lossless {
			plane, err := faultplane.New(faultplane.Scenario{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		msgs := make([]int, len(pts))
		for i, p := range pts {
			_, st, err := o.Join(p)
			if err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
			msgs[i] = st.Messages
		}
		return o, msgs
	}
	reliable, relMsgs := session(false)
	plane, planeMsgs := session(true)
	differ := 0
	for i := range relMsgs {
		if relMsgs[i] != planeMsgs[i] {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d joins report different messages (reliable %d in all, lossless plane %d)",
			differ, len(pts), reliable.Stats.JoinMessages, plane.Stats.JoinMessages)
	}
	if reliable.Stats.JoinMessages != plane.Stats.JoinMessages || reliable.Stats.Attempts != plane.Stats.Attempts {
		t.Errorf("join messages/attempts: reliable %d/%d, lossless plane %d/%d",
			reliable.Stats.JoinMessages, reliable.Stats.Attempts, plane.Stats.JoinMessages, plane.Stats.Attempts)
	}
	for i := range reliable.nodes {
		if reliable.nodes[i].parent != plane.nodes[i].parent {
			t.Fatalf("node %d: parent %d reliable, %d through the lossless plane",
				i, reliable.nodes[i].parent, plane.nodes[i].parent)
		}
	}
}

// TestReliableRestartCountsAsLosslessPlane is the restart counterpart of
// TestReliableJoinCountsAsLosslessPlane: 30 abrupt failures, each followed
// by a Restart of the failed member, report the same per-restart messages,
// the same attempts and the same parents with no transport attached as
// through a plane that never loses, duplicates or delays a message.
func TestReliableRestartCountsAsLosslessPlane(t *testing.T) {
	pts := rng.New(6).UniformDiskN(3000, 1)
	session := func(lossless bool) (*Overlay, []int, int) {
		t.Helper()
		o, err := New(sessionConfig(SuggestK(len(pts))))
		if err != nil {
			t.Fatal(err)
		}
		if lossless {
			plane, err := faultplane.New(faultplane.Scenario{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := o.SetTransport(plane, DefaultFaultConfig()); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range pts {
			if _, _, err := o.Join(p); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		attempts := o.Stats.Attempts
		msgs := make([]int, 30)
		for i := range msgs {
			id := 1 + i*97%len(pts)
			if err := o.FailAbrupt(id); err != nil {
				t.Fatal(err)
			}
			st, err := o.Restart(id)
			if err != nil {
				t.Fatalf("restart %d: %v", id, err)
			}
			msgs[i] = st.Messages
		}
		return o, msgs, o.Stats.Attempts - attempts
	}
	reliable, relMsgs, relAttempts := session(false)
	plane, planeMsgs, planeAttempts := session(true)
	for i := range relMsgs {
		if relMsgs[i] != planeMsgs[i] {
			t.Errorf("restart %d: %d messages reliable, %d through the lossless plane", i, relMsgs[i], planeMsgs[i])
		}
	}
	if relAttempts != planeAttempts {
		t.Errorf("restart attempts: reliable %d, lossless plane %d", relAttempts, planeAttempts)
	}
	for i := range reliable.nodes {
		if reliable.nodes[i].parent != plane.nodes[i].parent {
			t.Fatalf("node %d: parent %d reliable, %d through the lossless plane",
				i, reliable.nodes[i].parent, plane.nodes[i].parent)
		}
	}
}
