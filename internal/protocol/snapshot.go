package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"omtree/internal/coords"
	"omtree/internal/core"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/grid"
	"omtree/internal/obs"
	"omtree/internal/snapshot"
)

// Crash-safe session state (DESIGN.md §2k). WriteSnapshot serializes the
// complete observable state of a session — configuration, per-node protocol
// state, cell membership, admission queue, the retained build state with
// its frozen certificate, the drift model's trajectories, and the round
// clock (Stats.MaintenanceRounds) — into the envelope defined by
// internal/snapshot. Restore reconstructs a session that re-encodes to the
// identical bytes and resumes MaintenanceRound at the recorded round.
//
// Observers are deliberately not serialized: the transport, metrics
// registry, trace recorder, flight recorder, and kill plan are process
// attachments, not overlay state, and a restarted coordinator reattaches
// fresh ones (SetTransport, Observe, Trace, SetFlight, SetKillPlan).

// SnapshotConfig schedules periodic snapshots from MaintenanceRound: every
// Interval rounds the end-of-round state is rotated and written atomically
// to Path. The zero value disables scheduling; WriteSnapshot and
// SnapshotToFile stay available for on-demand checkpoints.
type SnapshotConfig struct {
	// Interval is the number of maintenance rounds between scheduled
	// snapshots; > 0 enables them.
	Interval int
	// Path is the snapshot destination. Each write goes through the
	// temp-file + fsync + rename discipline, so a crash mid-write leaves
	// the previous snapshot intact.
	Path string
	// KeepLast rotates earlier snapshots to Path.1, Path.2, ... keeping
	// the newest KeepLast files in total; <= 1 keeps only Path itself.
	KeepLast int
}

// Enabled reports whether MaintenanceRound writes scheduled snapshots.
func (c SnapshotConfig) Enabled() bool { return c.Interval > 0 }

// validate rejects malformed configurations; the zero value is valid.
func (c SnapshotConfig) validate() error {
	if c == (SnapshotConfig{}) {
		return nil
	}
	if c.Interval < 1 {
		return fmt.Errorf("protocol: snapshot Interval %d < 1 (rounds between scheduled snapshots)", c.Interval)
	}
	if c.Path == "" {
		return fmt.Errorf("protocol: snapshot Interval set without a Path to write to")
	}
	if c.KeepLast < 0 {
		return fmt.Errorf("protocol: snapshot KeepLast %d negative", c.KeepLast)
	}
	return nil
}

// SetKillPlan attaches a crash schedule: instrumented operations
// (WriteSnapshot, SnapshotToFile, Rebuild, reconciliation) abort with the
// plan's *faultplane.KilledError when a scheduled kill point fires,
// leaving state exactly as the crash found it. Passing nil detaches the
// plan. One plan models one process lifetime; install a fresh plan after a
// simulated restart for another crash.
func (o *Overlay) SetKillPlan(p *faultplane.KillPlan) { o.kill = p }

// killpoint crosses a named kill point; a non-nil return is the simulated
// process death, threaded up the caller's return path (never a panic).
func (o *Overlay) killpoint(name string) error {
	if err := o.kill.At(name); err != nil {
		o.emit("protocol/killed", -1, -1, name)
		return err
	}
	return nil
}

func putRawPoint(e *snapshot.Encoder, p geom.Point2) {
	e.Float64(p.X)
	e.Float64(p.Y)
}

func getRawPoint(d *snapshot.Decoder) geom.Point2 {
	return geom.Point2{X: d.Float64(), Y: d.Float64()}
}

func encodeFaultConfig(e *snapshot.Encoder, c FaultConfig) {
	e.Int(c.Retry.MaxAttempts)
	e.Float64(c.Retry.BaseTimeout)
	e.Float64(c.Retry.Backoff)
	e.Float64(c.Retry.Jitter)
	e.Int(c.SuspectAfter)
	e.Int(c.ConfirmAfter)
	e.Float64(c.DegradedRadius)
}

func decodeFaultConfig(d *snapshot.Decoder) FaultConfig {
	return FaultConfig{
		Retry: RetryPolicy{
			MaxAttempts: d.Int(),
			BaseTimeout: d.Float64(),
			Backoff:     d.Float64(),
			Jitter:      d.Float64(),
		},
		SuspectAfter:   d.Int(),
		ConfirmAfter:   d.Int(),
		DegradedRadius: d.Float64(),
	}
}

// encodeSparseInts writes one per-node int field as a count followed by
// ascending (id, value) pairs of the nonzero entries.
func encodeSparseInts(e *snapshot.Encoder, nodes []node, field func(*node) int) {
	nz := 0
	for i := range nodes {
		if field(&nodes[i]) != 0 {
			nz++
		}
	}
	e.Uvarint(uint64(nz))
	for i := range nodes {
		if v := field(&nodes[i]); v != 0 {
			e.Uvarint(uint64(i))
			e.Int(v)
		}
	}
}

// decodeSparseInts reads a column written by encodeSparseInts, storing each
// value through set; absent entries keep their zero value.
func decodeSparseInts(d *snapshot.Decoder, nnodes int, set func(i int, v int)) {
	nz := d.Length(2)
	for j := 0; j < nz; j++ {
		i := d.Uvarint()
		v := d.Int()
		if d.Err() != nil {
			return
		}
		if i >= uint64(nnodes) {
			d.Fail("sparse counter for node %d of %d", i, nnodes)
			return
		}
		set(int(i), v)
	}
}

// encodeTo appends the session's full payload. putPt may be nil for the
// raw fixed-width position encoding; a GroupSet snapshot passes an
// interning encoder so the shared host population is written once.
func (o *Overlay) encodeTo(e *snapshot.Encoder, putPt core.PointEncoder) {
	if putPt == nil {
		putPt = putRawPoint
	}

	// Session parameters (Config minus the runtime Transport attachment),
	// then the operative fault tuning, which SetTransport may have changed
	// after New.
	c := o.cfg
	putPt(e, c.Source)
	e.Float64(c.Scale)
	e.Int(c.K)
	e.Int(c.MaxOutDegree)
	encodeFaultConfig(e, c.Faults)
	e.Float64(c.Admission.RatePerRound)
	e.Int(c.Admission.Burst)
	e.Int(c.Admission.QueueLimit)
	e.Int(c.Drift.ReestimatePeriod)
	e.Float64(c.Drift.DegradationThreshold)
	e.Float64(c.Drift.FullRebuildCutoff)
	e.Int(int(c.Drift.Policy))
	e.Int(c.Snapshot.Interval)
	e.String(c.Snapshot.Path)
	e.Int(c.Snapshot.KeepLast)
	encodeFaultConfig(e, o.fcfg)
	// Operative admission tuning — SetAdmission may have replaced the one
	// the session was configured with.
	e.Float64(o.adm.RatePerRound)
	e.Int(o.adm.Burst)
	e.Int(o.adm.QueueLimit)

	// Per-node protocol state, one column per field: a restore bulk-decodes
	// each column with a single bounds check instead of paying per-field
	// sticky-error checks on every node, which is most of what keeps a
	// 100k-node restore an order of magnitude under a cold rebuild. The
	// stored polar view is written as-is: joins outside the published disk
	// were clamped into the outer ring, so recomputing it from the position
	// would disagree.
	e.Uvarint(uint64(len(o.nodes)))
	for i := range o.nodes {
		putPt(e, o.nodes[i].pos)
	}
	for i := range o.nodes {
		e.Float64(o.nodes[i].polar.R)
	}
	for i := range o.nodes {
		e.Float64(o.nodes[i].polar.Theta)
	}
	for i := range o.nodes {
		e.Fixed32(o.nodes[i].cell)
	}
	for i := range o.nodes {
		e.Fixed32(o.nodes[i].parent)
	}
	// Children as a length column plus one flattened column — the layout
	// Decoder.Int32Lists reads back.
	for i := range o.nodes {
		e.Fixed32(int32(len(o.nodes[i].children)))
	}
	for i := range o.nodes {
		for _, c := range o.nodes[i].children {
			e.Fixed32(c)
		}
	}
	for i := range o.nodes {
		e.Float64(o.nodes[i].delay)
	}
	e.Bools(o.live)
	// v1's representative column, derived from reps: the decoder rejects
	// a column that disagrees with them.
	for i := range o.nodes {
		e.Bool(o.isRep(int32(i)))
	}
	// The failure-detector counters are zero on every node a detector
	// round is not currently counting against, so they go out sparse:
	// ascending (id, value) pairs of just the nonzero entries.
	encodeSparseInts(e, o.nodes, func(n *node) int { return n.susp })
	encodeSparseInts(e, o.nodes, func(n *node) int { return n.pmiss })
	for i := range o.nodes {
		e.Bool(o.nodes[i].isCoord)
	}

	// Cell membership in list order (elections pick the lowest-id live
	// member as convener, so order is protocol state, not presentation).
	e.Uvarint(uint64(len(o.members)))
	e.Int32Lists(o.members)
	e.Fixed32s(o.reps)
	e.Int(o.lastSides)

	// Admission-queue contents and the token bucket.
	e.Float64(o.admTokens)
	e.Uvarint(uint64(len(o.pending)))
	for _, p := range o.pending {
		putPt(e, p)
	}

	// The retained build state (grid/bucket arrays, frozen certificate).
	o.bs.EncodeTo(e, putPt)

	// Drift model trajectories and the re-estimation phase.
	e.Bool(o.drift != nil)
	if o.drift != nil {
		o.drift.EncodeTo(e)
	}
	e.Int(o.driftRounds)

	// Session counters — including the round clock MaintenanceRound
	// resumes from.
	for _, f := range statsFields(&o.Stats) {
		e.Int(*f.v)
	}
}

// encodedSizeBound returns an upper bound on the payload encodeTo writes
// with raw positions: fixed-width columns count exactly and every varint
// counts at its widest, binary.MaxVarintLen64. A checkpoint allocates its
// one buffer from it.
func (o *Overlay) encodedSizeBound() int {
	const v, f, pt = binary.MaxVarintLen64, 8, 16
	const faults = 3*v + 4*f // encodeFaultConfig
	const admission = f + 2*v
	// Config, operative fault tuning and operative admission.
	size := pt + f + 2*v + faults + admission + (2*v + 2*f) + (3*v + len(o.cfg.Snapshot.Path)) + faults + admission
	// Per-node columns: position, polar, cell, parent, child count, delay
	// and three flags; then the flattened children and the two sparse
	// detector counters, one (id, value) pair per nonzero entry.
	size += v + len(o.nodes)*(pt+2*f+3*4+f+3) + 2*v
	for i := range o.nodes {
		n := &o.nodes[i]
		size += 4 * len(n.children)
		if n.susp != 0 {
			size += 2 * v
		}
		if n.pmiss != 0 {
			size += 2 * v
		}
	}
	// Membership, representatives, partition sides, admission queue.
	size += v + snapshot.Int32ListsLen(o.members) + v + 4*len(o.reps) + v
	size += f + v + pt*len(o.pending)
	size += o.bs.EncodedSizeBound() + 1 + v
	if o.drift != nil {
		size += o.drift.EncodedSizeBound()
	}
	return size + v*len(statsFields(&o.Stats))
}

// decodeOverlay reads a session written by encodeTo and validates every
// index a later operation would follow, so a CRC-valid but logically
// inconsistent payload fails here instead of corrupting a live session.
// The returned overlay has no transport or observers attached.
func decodeOverlay(d *snapshot.Decoder, getPt core.PointDecoder) (*Overlay, error) {
	raw := getPt == nil
	if raw {
		getPt = getRawPoint
	}
	corrupt := func(format string, args ...any) (*Overlay, error) {
		return nil, fmt.Errorf("%w: overlay: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
	}

	var cfg Config
	cfg.Source = getPt(d)
	cfg.Scale = d.Float64()
	cfg.K = d.Int()
	cfg.MaxOutDegree = d.Int()
	cfg.Faults = decodeFaultConfig(d)
	cfg.Admission = Admission{
		RatePerRound: d.Float64(),
		Burst:        d.Int(),
		QueueLimit:   d.Int(),
	}
	cfg.Drift = DriftConfig{
		ReestimatePeriod:     d.Int(),
		DegradationThreshold: d.Float64(),
		FullRebuildCutoff:    d.Float64(),
		Policy:               RepairPolicy(d.Int()),
	}
	cfg.Snapshot = SnapshotConfig{
		Interval: d.Int(),
		Path:     d.String(),
		KeepLast: d.Int(),
	}
	fcfg := decodeFaultConfig(d)
	adm := Admission{
		RatePerRound: d.Float64(),
		Burst:        d.Int(),
		QueueLimit:   d.Int(),
	}

	// Columns mirror encodeTo exactly. Every bulk read returns nil once the
	// decoder is poisoned, so the assembly loop runs only when all columns
	// arrived at full length.
	nnodes := d.Length(1)
	nodes := make([]node, nnodes)
	if raw {
		xy := d.Float64s(2 * nnodes)
		for i := 0; i < len(xy)/2; i++ {
			nodes[i].pos = geom.Point2{X: xy[2*i], Y: xy[2*i+1]}
		}
	} else {
		for i := range nodes {
			nodes[i].pos = getPt(d)
		}
	}
	polarR := d.Float64s(nnodes)
	polarTheta := d.Float64s(nnodes)
	cells := make([]int32, nnodes)
	d.Fixed32sInto(cells)
	parents := make([]int32, nnodes)
	d.Fixed32sInto(parents)
	children := d.Int32Lists(nnodes)
	delays := d.Float64s(nnodes)
	live := d.Bools(nnodes)
	isRepCol := d.Bools(nnodes)
	decodeSparseInts(d, nnodes, func(i, v int) { nodes[i].susp = v })
	decodeSparseInts(d, nnodes, func(i, v int) { nodes[i].pmiss = v })
	isCoordCol := d.Bools(nnodes)
	if d.Err() == nil {
		for i := range nodes {
			n := &nodes[i]
			n.polar = geom.Polar{R: polarR[i], Theta: polarTheta[i]}
			n.cell = cells[i]
			n.parent = parents[i]
			n.children = children[i]
			n.delay = delays[i]
			n.isCoord = isCoordCol[i]
		}
	}
	ncells := d.Length(1)
	members := d.Int32Lists(ncells)
	reps := d.Fixed32s()
	lastSides := d.Int()
	admTokens := d.Float64()
	npending := d.Length(1)
	var pending []geom.Point2
	for i := 0; i < npending; i++ {
		pending = append(pending, getPt(d))
	}
	bs, err := core.DecodeBuildState(d, getPt)
	if err != nil {
		return nil, err
	}
	var dm *coords.DriftModel
	if d.Bool() {
		if dm, err = coords.DecodeDriftModel(d); err != nil {
			return nil, err
		}
	}
	driftRounds := d.Int()
	var stats SessionStats
	for _, f := range statsFields(&stats) {
		*f.v = d.Int()
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("overlay: %w", err)
	}

	// Config.Validate with the fields a snapshot cannot carry zeroed: fault
	// tuning demands a live transport, which a restored session does not
	// have yet (reattach with SetTransport).
	vc := cfg
	vc.Transport = nil
	vc.Faults = FaultConfig{}
	if err := vc.Validate(); err != nil {
		return corrupt("%v", err)
	}
	if cfg.Faults != (FaultConfig{}) {
		if err := cfg.Faults.validate(); err != nil {
			return corrupt("%v", err)
		}
	}
	if err := fcfg.validate(); err != nil {
		return corrupt("%v", err)
	}
	g, err := grid.NewPolarGrid(cfg.K, cfg.Scale)
	if err != nil {
		return corrupt("%v", err)
	}
	if nnodes < 1 {
		return corrupt("no source node")
	}
	if len(live) != nnodes {
		return corrupt("liveness column of %d entries for %d nodes", len(live), nnodes)
	}
	if nodes[0].parent != parentNone || !live[0] {
		return corrupt("source node not rooted and alive")
	}
	if ncells != g.NumCells() || len(reps) != g.NumCells() {
		return corrupt("%d member lists / %d reps for a depth-%d grid (%d cells)",
			ncells, len(reps), cfg.K, g.NumCells())
	}
	alive := 0
	for i := range nodes {
		n := &nodes[i]
		if live[i] {
			alive++
		}
		if n.cell < 0 || int(n.cell) >= ncells {
			return corrupt("node %d in cell %d of a %d-cell grid", i, n.cell, ncells)
		}
		if n.parent < parentDead || int(n.parent) >= nnodes || n.parent == int32(i) {
			return corrupt("node %d parented by %d", i, n.parent)
		}
		for _, c := range n.children {
			if c < 1 || int(c) >= nnodes {
				return corrupt("node %d lists child %d of %d nodes", i, c, nnodes)
			}
		}
		if n.susp < 0 || n.pmiss < 0 {
			return corrupt("node %d with negative detector counters", i)
		}
	}
	for cell, ms := range members {
		for _, m := range ms {
			if m < 1 || int(m) >= nnodes {
				return corrupt("cell %d lists member %d of %d nodes", cell, m, nnodes)
			}
		}
	}
	for cell, r := range reps {
		if r < -1 || int(r) >= nnodes {
			return corrupt("cell %d represented by %d", cell, r)
		}
	}
	for i := range nodes {
		if cell := nodes[i].cell; isRepCol[i] != (reps[cell] == int32(i)) {
			return corrupt("node %d's representative flag %v disagrees with cell %d's representative %d",
				i, isRepCol[i], cell, reps[cell])
		}
	}
	if math.IsNaN(admTokens) || math.IsInf(admTokens, 0) || admTokens < 0 {
		return corrupt("admission tokens %v", admTokens)
	}
	if dm != nil && !cfg.Drift.Enabled() {
		return corrupt("drift model attached without drift tuning")
	}

	o := &Overlay{
		cfg:         cfg,
		g:           g,
		nodes:       nodes,
		live:        live,
		members:     members,
		reps:        reps,
		alive:       alive,
		fcfg:        fcfg,
		lastSides:   lastSides,
		bs:          bs,
		drift:       dm,
		driftRounds: driftRounds,
		Stats:       stats,
	}
	// SetAdmission normalizes and validates exactly as it did live, then
	// the recorded bucket and queue overwrite its fresh-start reset.
	// SetDrift is deliberately not used: it would reset the sweep phase
	// and re-Track every member, discarding the recorded trajectories.
	if err := o.SetAdmission(adm); err != nil {
		return corrupt("%v", err)
	}
	o.admTokens = admTokens
	o.pending = pending
	return o, nil
}

// checkpoint crosses the "snapshot/encode" kill point, then encodes the
// session into one sealed overlay envelope: the payload is written in
// place into a buffer allocated once from encodedSizeBound, and sealed
// there. WriteSnapshot and SnapshotToFile both write what it returns.
func (o *Overlay) checkpoint() ([]byte, error) {
	if err := o.killpoint("snapshot/encode"); err != nil {
		return nil, err
	}
	env := snapshot.NewEnvelope(o.encodedSizeBound())
	o.encodeTo(&env.Encoder, nil)
	return env.Seal(snapshot.KindOverlay), nil
}

// WriteSnapshot serializes the session into w as one sealed envelope.
// Encoding is deterministic: the same state always produces the same
// bytes. The envelope is written in two halves around the
// "snapshot/write" kill point, so a scheduled crash leaves w holding a
// torn prefix that Restore rejects by checksum — exactly the failure the
// recovery suite degrades from. Counted in Stats.SnapshotWrites only
// after the write completes.
func (o *Overlay) WriteSnapshot(w io.Writer) error {
	blob, err := o.checkpoint()
	if err != nil {
		return err
	}
	half := len(blob) / 2
	if _, err := w.Write(blob[:half]); err != nil {
		return err
	}
	if err := o.killpoint("snapshot/write"); err != nil {
		return err
	}
	if _, err := w.Write(blob[half:]); err != nil {
		return err
	}
	o.Stats.SnapshotWrites++
	o.emit("protocol/snapshot", -1, -1, "bytes="+strconv.Itoa(len(blob)))
	return nil
}

// SnapshotToFile rotates earlier snapshots (keep-last-N) and writes the
// current state to path atomically: a real crash mid-write leaves the
// previous snapshot intact behind the rename. A *scheduled* kill at
// "snapshot/write" instead models a torn write — half the envelope lands
// on disk without the atomic discipline — so the recovery suite can prove
// the checksum catches it.
func (o *Overlay) SnapshotToFile(path string, keep int) error {
	blob, err := o.checkpoint()
	if err != nil {
		return err
	}
	if err := snapshot.Rotate(path, keep); err != nil {
		return err
	}
	if err := o.killpoint("snapshot/write"); err != nil {
		_ = os.WriteFile(path, blob[:len(blob)/2], 0o644)
		return err
	}
	if err := snapshot.WriteFileAtomic(path, blob); err != nil {
		return err
	}
	o.Stats.SnapshotWrites++
	o.emit("protocol/snapshot", -1, -1, "bytes="+strconv.Itoa(len(blob)))
	return nil
}

// maybeAutoSnapshot is MaintenanceRound's final phase: every
// Config.Snapshot.Interval rounds the end-of-round state is checkpointed
// to the configured path.
func (o *Overlay) maybeAutoSnapshot() error {
	sc := o.cfg.Snapshot
	if !sc.Enabled() || o.Stats.MaintenanceRounds%sc.Interval != 0 {
		return nil
	}
	return o.SnapshotToFile(sc.Path, sc.KeepLast)
}

// readAll slurps a snapshot in one allocation when the reader exposes its
// size (bytes.Reader-likes via Len, files via Stat), falling back to
// io.ReadAll's doubling growth otherwise. A multi-megabyte snapshot read
// through ReadAll would be copied several times over.
func readAll(r io.Reader) ([]byte, error) {
	var size int64
	switch rr := r.(type) {
	case interface{ Len() int }:
		size = int64(rr.Len())
	case *os.File:
		if fi, err := rr.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	if size <= 0 || size > math.MaxInt32 {
		return io.ReadAll(r)
	}
	data := make([]byte, size)
	n, err := io.ReadFull(r, data)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return data[:n], nil // shrank since Stat; Open judges what arrived
	}
	if err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(r) // grew since Stat, or Len under-reported
	if err != nil {
		return nil, err
	}
	return append(data, rest...), nil
}

// Restore reads a snapshot written by WriteSnapshot or SnapshotToFile and
// reconstructs the session: a byte-identical re-encoder of the recorded
// state, resuming MaintenanceRound at the recorded round. Torn or corrupt
// input fails with an error wrapping snapshot.ErrCorrupt — never a panic —
// so a coordinator can degrade to a cold rebuild from member reports; an
// intact snapshot of another format version wraps snapshot.ErrVersion.
//
// The restored session has no transport, registry, recorder, or kill plan
// attached; reattach them (SetTransport, Observe, Trace, SetFlight,
// SetKillPlan) before resuming operations that need them. The restore is
// counted in the restored session's Stats.Restores.
func Restore(r io.Reader) (*Overlay, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	return RestoreBytes(data)
}

// RestoreBytes is Restore for a snapshot already in memory — received over
// a network, read from an embedded store, or handed back by an encoder.
// It skips the reader copy; data is only read during the call and is not
// retained by the restored session.
func RestoreBytes(data []byte) (*Overlay, error) {
	kind, payload, err := snapshot.Open(data)
	if err != nil {
		return nil, err
	}
	if kind != snapshot.KindOverlay {
		return nil, fmt.Errorf("%w: payload kind %d is not an overlay", snapshot.ErrCorrupt, kind)
	}
	d := snapshot.NewDecoder(payload)
	o, err := decodeOverlay(d, nil)
	if err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the overlay payload", snapshot.ErrCorrupt, d.Len())
	}
	o.Stats.Restores++
	return o, nil
}

// RestoreFile restores a session from a snapshot file; a missing file is
// reported as-is (not corruption), so callers can distinguish "no
// snapshot yet" from a torn one.
func RestoreFile(path string) (*Overlay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(f)
}

// WriteSnapshot serializes the whole set as one envelope: the shared
// tuning, an interned position table — the substrate's host coordinates
// encoded exactly once — and each group's session as per-group deltas of
// table indices. Group order is the sorted name order, so encoding is
// deterministic.
func (s *GroupSet) WriteSnapshot(w io.Writer) error {
	var table []geom.Point2
	index := make(map[geom.Point2]int)
	putPt := func(e *snapshot.Encoder, p geom.Point2) {
		i, ok := index[p]
		if !ok {
			i = len(table)
			index[p] = i
			table = append(table, p)
		}
		e.Uvarint(uint64(i))
	}
	// The group bodies are encoded first (building the table as a side
	// effect), then spliced after the finished table so the decoder reads
	// the table up front.
	var body snapshot.Encoder
	body.Uvarint(uint64(len(s.names)))
	for _, name := range s.names {
		body.String(name)
		s.groups[name].encodeTo(&body, putPt)
	}
	var e snapshot.Encoder
	e.Bool(s.transport != nil)
	e.Bool(false) // reserved: once an armed round-clock tick; read and ignored
	encodeFaultConfig(&e, s.faults)
	e.Uvarint(uint64(len(table)))
	for _, p := range table {
		e.Float64(p.X)
		e.Float64(p.Y)
	}
	e.Raw(body.Bytes())
	_, err := w.Write(snapshot.Seal(snapshot.KindGroupSet, e.Bytes()))
	return err
}

// RestoreGroupSet reads a snapshot written by GroupSet.WriteSnapshot. The
// transport mirrors NewGroupSet: a set snapshotted with a shared transport
// must be restored with one (the snapshot cannot carry the network), and a
// reliable set must stay reliable. The registry may be nil. Each restored
// group counts one Stats.Restores.
func RestoreGroupSet(r io.Reader, t Transport, reg *obs.Registry) (*GroupSet, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, err
	}
	kind, payload, err := snapshot.Open(data)
	if err != nil {
		return nil, err
	}
	if kind != snapshot.KindGroupSet {
		return nil, fmt.Errorf("%w: payload kind %d is not a group set", snapshot.ErrCorrupt, kind)
	}
	d := snapshot.NewDecoder(payload)
	corrupt := func(format string, args ...any) (*GroupSet, error) {
		return nil, fmt.Errorf("%w: group set: "+format, append([]any{snapshot.ErrCorrupt}, args...)...)
	}

	hadShared := d.Bool()
	d.Bool() // reserved (see WriteSnapshot); an old armed tick is dropped
	faults := decodeFaultConfig(d)
	ntable := d.Length(16)
	table := make([]geom.Point2, ntable)
	for i := range table {
		table[i] = geom.Point2{X: d.Float64(), Y: d.Float64()}
	}
	getPt := func(d *snapshot.Decoder) geom.Point2 {
		i := d.Uvarint()
		if i >= uint64(len(table)) {
			d.Fail("position index %d outside the %d-entry table", i, len(table))
			return geom.Point2{}
		}
		return table[i]
	}
	ngroups := d.Length(1)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("group set: %w", err)
	}
	if hadShared && t == nil {
		return nil, fmt.Errorf("protocol: snapshot used a shared transport; RestoreGroupSet needs one")
	}
	if !hadShared && t != nil {
		return nil, fmt.Errorf("protocol: snapshot was reliable; restoring with a transport would change the model")
	}
	if faults != (FaultConfig{}) {
		if err := faults.validate(); err != nil {
			return corrupt("%v", err)
		}
	} else if hadShared {
		return corrupt("shared transport without fault tuning")
	}

	gs := &GroupSet{transport: t, faults: faults, reg: reg, groups: make(map[string]*Overlay, ngroups)}
	prev := ""
	for i := 0; i < ngroups; i++ {
		name := d.String()
		if d.Err() != nil {
			return nil, fmt.Errorf("group set: %w", d.Err())
		}
		if name == "" || name <= prev {
			return corrupt("group names not sorted and unique (%q after %q)", name, prev)
		}
		prev = name
		o, err := decodeOverlay(d, getPt)
		if err != nil {
			return nil, err
		}
		if t != nil {
			if err := o.SetTransport(t, faults); err != nil {
				return corrupt("%v", err)
			}
		}
		o.reg = reg
		o.flightShared = true // the set owns both round clocks (see Create)
		o.Stats.Restores++
		gs.groups[name] = o
		gs.names = append(gs.names, name)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("group set: %w", err)
	}
	if d.Len() != 0 {
		return corrupt("%d trailing bytes after the last group", d.Len())
	}
	return gs, nil
}

// Restart revives a crashed or ghost-left member in place: the node
// re-enters at its recorded position under its original id, finishing
// whatever cleanup its death left behind (stale wiring, membership
// entries, a held representative role) and re-attaching exactly like a
// join. Orphans that never re-homed ride back in under the restarted
// node. It counts one Rejoin — never a second Join — so a crash+restart
// cycle does not double-count membership churn; its control messages land
// in JoinMessages.
func (o *Overlay) Restart(id int) (OpStats, error) {
	var st OpStats
	if id <= 0 || id >= len(o.nodes) {
		return st, fmt.Errorf("protocol: no such node %d", id)
	}
	n := &o.nodes[id]
	if o.live[id] {
		return st, fmt.Errorf("protocol: node %d is already alive", id)
	}
	endOp := o.beginOp("protocol/restart", int32(id), "")
	outcome := "refused"
	defer func() {
		o.Stats.JoinMessages += st.Messages
		endOp(outcome)
	}()

	if n.parent != parentDead || o.isRep(int32(id)) || len(n.children) > 0 {
		o.repairDead(int32(id), &st)
	}
	o.removeMember(n.cell, int32(id)) // a lost goodbye may still list it
	n.parent = parentDead
	n.susp = 0
	n.pmiss = 0
	n.isCoord = false

	// Re-attach at the stored position: announce to the source, pick the
	// best local parent in the cell, fall back to a descent — the join
	// protocol on an existing id.
	if !o.exchange(int32(id), 0, &st) {
		if parent := o.degradedAttach(int32(id), &st); parent >= 0 {
			o.Stats.DegradedJoins++
			o.finishRestart(int32(id))
			outcome = "degraded"
			return st, nil
		}
		return st, fmt.Errorf("protocol: restart could not reach the source")
	}
	parent := o.bestLocalParent(n.cell, n.pos)
	if parent < 0 {
		parent = o.descendParent(n.pos, o.residual, &st)
	}
	if parent < 0 {
		return st, fmt.Errorf("protocol: overlay out of capacity")
	}
	if !o.exchange(int32(id), parent, &st) {
		return st, fmt.Errorf("protocol: restart could not reach a parent")
	}
	o.attach(int32(id), parent)
	o.finishRestart(int32(id))
	outcome = "ok"
	return st, nil
}

// finishRestart admits the restarted node again and books the rejoin.
func (o *Overlay) finishRestart(id int32) {
	o.admit(id)
	o.refreshDelays(id) // surviving orphans rode back in under the node
	o.Stats.Rejoins++
	o.emit("protocol/restarted", id, o.nodes[id].parent, "")
}
