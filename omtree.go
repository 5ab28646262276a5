// Package omtree builds overlay multicast trees of minimal delay: spanning
// trees rooted at a source that minimize the maximum sender-to-receiver
// delay subject to per-node out-degree (bandwidth) constraints, after
// Riabov, Liu & Zhang, "Overlay Multicast Trees of Minimal Delay" (ICDCS
// 2004).
//
// The primary entry points are Build (2-D), Build3D and BuildND, which run
// Algorithm Polar_Grid — asymptotically optimal for points filling a convex
// region around the source — and BuildBisection, the stand-alone
// constant-factor approximation (factor 5 at out-degree 4, 9 at out-degree
// 2). Node 0 of every resulting tree is the source; node i >= 1 is
// receivers[i-1]. Builds are deterministic; WithParallelism fans the
// construction over a worker pool without changing the resulting tree.
//
// Supporting toolkits are re-exported here: baselines (Star, GreedyClosest,
// BandwidthLatency, ...), the discrete-event overlay simulator (NewSim,
// Repair), the GNP-style network-coordinates substrate (Embed,
// TransitStub), the multi-group shared substrate (NewSubstrate,
// Substrate.NewGroup), and deterministic geometric samplers (NewRand).
package omtree

import (
	"fmt"
	"io"

	"omtree/internal/baseline"
	"omtree/internal/bisect"
	"omtree/internal/coords"
	"omtree/internal/core"
	"omtree/internal/faultplane"
	"omtree/internal/geom"
	"omtree/internal/multigroup"
	"omtree/internal/netsim"
	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
	"omtree/internal/protocol"
	"omtree/internal/rng"
	"omtree/internal/snapshot"
	"omtree/internal/tree"
	"omtree/internal/viz"
)

// Geometric and structural types.
type (
	// Point2 is a point of the plane.
	Point2 = geom.Point2
	// Point3 is a point of 3-space.
	Point3 = geom.Point3
	// Vec is a point of d-dimensional space (d = len).
	Vec = geom.Vec
	// Tree is a rooted degree-constrained multicast tree.
	Tree = tree.Tree
	// DistFunc supplies edge lengths to tree metrics.
	DistFunc = tree.DistFunc
	// Result carries a Polar_Grid build outcome (tree + Table I metrics).
	Result = core.Result
	// Option configures a Polar_Grid build.
	Option = core.Option
	// Variant names the Polar_Grid wiring (natural or binary).
	Variant = core.Variant
	// BisectReport certifies a stand-alone 2-D Bisection build.
	BisectReport = bisect.Report
	// Rand is the deterministic generator behind all samplers.
	Rand = rng.Rand
	// Cluster describes one Gaussian component of the clustered and
	// mixed-density samplers.
	Cluster = rng.Cluster
)

// Polar_Grid variants.
const (
	VariantNatural = core.VariantNatural
	VariantHybrid  = core.VariantHybrid
	VariantBinary  = core.VariantBinary
)

// Build options.
var (
	// WithMaxOutDegree caps every node's out-degree; >= the natural degree
	// (6 / 10 / 2^d+2) selects the natural variant, [4, natural) the hybrid
	// variant (out-degree 4), and {2, 3} the binary variant.
	WithMaxOutDegree = core.WithMaxOutDegree
	// WithForceK pins the grid ring count (ablation hook).
	WithForceK = core.WithForceK
	// WithKMax caps the automatic ring search.
	WithKMax = core.WithKMax
	// WithParallelism fans the build over n workers (1 = serial; <= 0 =
	// GOMAXPROCS for large inputs). Parallel and serial builds of the same
	// input produce identical trees.
	WithParallelism = core.WithParallelism
	// WithObserver attaches a metrics registry to the build; phase timings
	// land under "build/..." without changing the resulting tree.
	WithObserver = core.WithObserver
	// WithTrace attaches an event recorder to the build; phase begin/end
	// events and per-cell wiring instants land on one trace id without
	// changing the resulting tree.
	WithTrace = core.WithTrace
	// WithFlight attaches a flight recorder to the build; the completed
	// build lands one "build"-cause sample without changing the resulting
	// tree.
	WithFlight = core.WithFlight
)

// ErrNonFinite reports a NaN or infinite source, receiver or host
// coordinate, or a receiver whose distance from the source overflows.
// Every build, BuildState rebuild, overlay join and substrate constructor
// rejects such points with an error matching it under errors.Is. Polar_Grid
// builds, BuildState rebuilds, the standalone Bisections and overlay
// configs also report it for a scale (farthest receiver's distance from the
// source) outside [2^-450, 2^450], where squared distances overflow or
// underflow.
var ErrNonFinite = core.ErrNonFinite

// Observability types (see internal/obs): a dependency-free registry of
// counters, gauges, histograms, and hierarchical timing spans with stable
// text/JSON snapshots. An Observer threads through builds (WithObserver),
// sessions (Overlay.Observe), simulations (SimConfig.Obs), and fault planes
// (FaultPlane.Observe); a nil Observer is accepted everywhere and free.
type (
	// Observer collects metrics across the toolkit's layers.
	Observer = obs.Registry
	// MetricsSnapshot is a frozen, renderable view of an Observer.
	MetricsSnapshot = obs.Snapshot
	// OverlaySessionStats aggregates a session's control traffic.
	OverlaySessionStats = protocol.SessionStats
)

// NewObserver returns an enabled metrics registry.
func NewObserver() *Observer { return obs.New() }

// Causal-event tracing (see internal/obs/trace): a bounded ring of
// timeline events with trace/span ids minted per protocol operation,
// exported as a deterministic text timeline or Chrome trace-event JSON
// (loadable in Perfetto). A TraceRecorder threads through builds
// (WithTrace), sessions (Overlay.Trace), simulations (SimConfig.Trace),
// and fault planes (via the session's transport); nil is accepted
// everywhere and free.
type (
	// TraceRecorder is the bounded causal-event ring.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded timeline entry.
	TraceEvent = trace.Event
)

// NewTraceRecorder returns an enabled event recorder with the given ring
// capacity (<= 0 selects the 64k-event default).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.New(capacity) }

// Flight recording (see internal/obs/flight): a bounded in-memory ring of
// registry samples driven by the protocol's virtual round clock, with
// per-series delta/rate computation, a declarative SLO watchdog, a
// deterministic text health report, and OpenMetrics/JSONL export. A
// FlightRecorder threads through builds (WithFlight), sessions
// (Overlay.SetFlight), group sets (OverlayGroupSet.SetFlight — one sample
// per sweep), and the drift sweep; nil is accepted everywhere and free.
type (
	// FlightRecorder samples an Observer into a bounded ring and watches
	// the samples against SLO rules.
	FlightRecorder = flight.Recorder
	// FlightConfig parameterizes a FlightRecorder: sample interval in
	// virtual rounds, ring capacity, SLO rules, and an optional trace
	// recorder receiving alert transitions.
	FlightConfig = flight.Config
	// FlightSample is one frozen point of the health trajectory.
	FlightSample = flight.Sample
	// SLORule is one declarative health rule, e.g.
	// `cert: protocol/certificate_ratio > 1.15 for 3`.
	SLORule = flight.SLORule
	// SLOAlert is one fired rule occurrence.
	SLOAlert = flight.Alert
)

// NewFlightRecorder returns an enabled flight recorder sampling reg (which
// must be non-nil; a nil registry yields a nil, inert recorder).
func NewFlightRecorder(reg *Observer, cfg FlightConfig) *FlightRecorder {
	return flight.New(reg, cfg)
}

// SLO rule-grammar helpers and the OpenMetrics exposition of a snapshot.
var (
	// ParseSLORule parses one rule:
	// `[name:] series|rate(series)|delta(series) OP number[%] [for N]`.
	ParseSLORule = flight.ParseSLORule
	// ParseSLORules parses a ';'-joined rule list (the CLI -slo format).
	ParseSLORules = flight.ParseSLORules
	// WriteOpenMetrics renders a metrics snapshot as Prometheus/OpenMetrics
	// exposition text.
	WriteOpenMetrics = flight.WriteOpenMetrics
)

// RegisterSessionMetrics publishes a session's stats under "protocol/..."
// in the registry (counter funcs; the struct stays the source of truth).
var RegisterSessionMetrics = protocol.RegisterSessionMetrics

// Build runs Algorithm Polar_Grid over planar receivers (default: the
// natural out-degree-6 variant).
func Build(source Point2, receivers []Point2, opts ...Option) (*Result, error) {
	return core.Build2(source, receivers, opts...)
}

// Build3D runs Algorithm Polar_Grid in three dimensions (default:
// out-degree 10).
func Build3D(source Point3, receivers []Point3, opts ...Option) (*Result, error) {
	return core.Build3(source, receivers, opts...)
}

// BuildND runs Algorithm Polar_Grid in dimension len(source) >= 2
// (default: out-degree 2^d + 2).
func BuildND(source Vec, receivers []Vec, opts ...Option) (*Result, error) {
	return core.BuildD(source, receivers, opts...)
}

// BuildState is a retained planar Polar_Grid build (see internal/core):
// Add/Remove record membership churn under caller-chosen slot ids >= 1,
// and Rebuild rewires only the grid cells the churn touched — falling back
// to a full rebuild when the verified ring count changes — while always
// returning a tree byte-identical to a from-scratch Build over the same
// membership. Rebuild's boolean reports whether the full path ran.
type BuildState = core.BuildState

// NewBuildState returns an empty retained build rooted at source, ready
// for Add/Remove/Rebuild cycles. It takes Build's options, WithParallelism
// included: every Rebuild fans out over that many workers.
var NewBuildState = core.NewBuildState

// Multi-group types (see internal/multigroup): many multicast groups over
// one shared host population. A Substrate holds the coordinates and the
// per-source polar views derived from them, built once; each GroupTree
// holds one group's private membership and tree state. A group's Build
// returns exactly what Build/Build3D/BuildND would for the same source and
// the members' coordinates in ascending host order.
type (
	// Substrate is the shared, read-only half of a multi-group deployment.
	Substrate = multigroup.Substrate
	// SubstrateOption configures a Substrate.
	SubstrateOption = multigroup.SubstrateOption
	// GroupTree is one group's private tree state on a Substrate.
	GroupTree = multigroup.GroupTree
	// GroupConfig describes one group: source, degree bound, grid knobs.
	GroupConfig = multigroup.GroupConfig
)

// Multi-group constructors.
var (
	// NewSubstrate builds the shared substrate over a 2-D host population.
	NewSubstrate = multigroup.NewSubstrate
	// NewSubstrate3 is NewSubstrate for 3-D hosts.
	NewSubstrate3 = multigroup.NewSubstrate3
	// NewSubstrateND is NewSubstrate for one coordinate slice per axis.
	NewSubstrateND = multigroup.NewSubstrateND
	// WithSubstrateObserver routes per-group labeled metrics to a registry
	// (bounded by the registry's label cap).
	WithSubstrateObserver = multigroup.WithObserver
)

// OverlayGroupSet runs several live sessions — one Overlay per group —
// over one shared transport and failure-detector tuning; MaintenanceAll
// sweeps every group while advancing the shared round clock exactly once.
type OverlayGroupSet = protocol.GroupSet

// NewOverlayGroupSet creates an empty group set. A nil transport makes
// every group reliable; the registry may be nil.
var NewOverlayGroupSet = protocol.NewGroupSet

// BuildBisection runs the stand-alone constant-factor Bisection over an
// arbitrary planar point set. Unlike Build, the source indexes into points
// and node ids equal point indices. Like Build, it rejects a point set whose
// scale lies outside [2^-450, 2^450] with ErrNonFinite.
func BuildBisection(points []Point2, source, maxOutDegree int) (*Tree, BisectReport, error) {
	if err := checkBisectionPoints(points, source); err != nil {
		return nil, BisectReport{}, err
	}
	return bisect.BuildTree(points, source, maxOutDegree)
}

// SquareBisectReport certifies a quadtree Bisection build.
type SquareBisectReport = bisect.SquareReport

// BuildBisectionSquare runs the quadtree variant of the Bisection (the
// square version §II alludes to): same constant-factor flavor, axis-aligned
// splitting.
func BuildBisectionSquare(points []Point2, source, maxOutDegree int) (*Tree, SquareBisectReport, error) {
	if err := checkBisectionPoints(points, source); err != nil {
		return nil, SquareBisectReport{}, err
	}
	return bisect.BuildTreeSquare(points, source, maxOutDegree)
}

// checkBisectionPoints applies Build's input contract to a standalone
// Bisection: the first NaN or infinite point fails with ErrNonFinite, and
// so does a scale (the farthest point's distance from the source) outside
// [core.MinScale, core.MaxScale], past which squared distances overflow or
// underflow and the recursion's choices tie. An out-of-range source is
// left to the build, which reports it.
func checkBisectionPoints(points []Point2, source int) error {
	for i, p := range points {
		if !p.IsFinite() {
			return fmt.Errorf("omtree: point %d at %v: %w", i, p, ErrNonFinite)
		}
	}
	if source < 0 || source >= len(points) {
		return nil
	}
	var scale float64
	for _, p := range points {
		scale = max(scale, p.Dist(points[source]))
	}
	return core.CheckScale(scale)
}

// DiameterResult is the outcome of a minimum-diameter build.
type DiameterResult = core.DiameterResult

// BuildMinDiameter applies Polar_Grid to the minimum-diameter (MDDL)
// problem (§VI): no designated source; the tree is rooted at the host
// nearest the point set's center and the largest host-to-host path is
// reported.
func BuildMinDiameter(points []Point2, opts ...Option) (*DiameterResult, error) {
	return core.BuildMinDiameter2(points, opts...)
}

// Dist returns the DistFunc matching Build's node numbering: node 0 is the
// source, node i >= 1 is receivers[i-1].
func Dist(source Point2, receivers []Point2) DistFunc {
	return func(i, j int) float64 {
		pi, pj := source, source
		if i > 0 {
			pi = receivers[i-1]
		}
		if j > 0 {
			pj = receivers[j-1]
		}
		return pi.Dist(pj)
	}
}

// Dist3D is Dist for 3-D builds.
func Dist3D(source Point3, receivers []Point3) DistFunc {
	return func(i, j int) float64 {
		pi, pj := source, source
		if i > 0 {
			pi = receivers[i-1]
		}
		if j > 0 {
			pj = receivers[j-1]
		}
		return pi.Dist(pj)
	}
}

// DistND is Dist for d-dimensional builds.
func DistND(source Vec, receivers []Vec) DistFunc {
	return func(i, j int) float64 {
		pi, pj := source, source
		if i > 0 {
			pi = receivers[i-1]
		}
		if j > 0 {
			pj = receivers[j-1]
		}
		return pi.Dist(pj)
	}
}

// NewRand returns a deterministic generator with geometric samplers
// (UniformDiskN, UniformBall3N, ClusteredDiskN, ...).
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Baseline tree constructions (see internal/baseline for semantics).
var (
	// Star attaches everything directly to the source (unconstrained
	// lower-bound witness).
	Star = baseline.Star
	// GreedyClosest is the compact-tree greedy.
	GreedyClosest = baseline.GreedyClosest
	// BandwidthLatency is the heuristic of Chu et al.
	BandwidthLatency = baseline.BandwidthLatency
	// BalancedKary packs distance-sorted receivers into a balanced k-ary
	// tree.
	BalancedKary = baseline.BalancedKary
	// RandomTree attaches receivers randomly subject to degree.
	RandomTree = baseline.Random
	// GreedyKNN is the k-d-tree-accelerated greedy (near-linear; pts[0]
	// is the source and node ids equal point indices).
	GreedyKNN = baseline.GreedyKNN
	// ExactOptimal exhaustively finds the optimum for n <= MaxExactNodes.
	ExactOptimal = baseline.Exact
)

// MaxExactNodes bounds ExactOptimal's exhaustive search.
const MaxExactNodes = baseline.MaxExactNodes

// Simulation types (see internal/netsim).
type (
	// Sim is the discrete-event overlay multicast simulator.
	Sim = netsim.Sim
	// SimConfig parameterizes a simulation.
	SimConfig = netsim.Config
	// Failure crashes a node at a point in time.
	Failure = netsim.Failure
	// Delivery reports one packet's propagation.
	Delivery = netsim.Delivery
	// RepairResult describes a repaired overlay.
	RepairResult = netsim.RepairResult
	// RepairStrategy selects orphan reattachment policy.
	RepairStrategy = netsim.RepairStrategy
)

// Repair strategies.
const (
	RepairGrandparent = netsim.RepairGrandparent
	RepairBestDelay   = netsim.RepairBestDelay
)

// NewSim builds a simulator over a tree.
func NewSim(t *Tree, cfg SimConfig) (*Sim, error) { return netsim.New(t, cfg) }

// Repair removes failed nodes and reattaches orphaned subtrees.
var Repair = netsim.Repair

// Network-coordinate types (see internal/coords).
type (
	// DelayMatrix is a symmetric host-to-host delay matrix.
	DelayMatrix = coords.Matrix
	// EmbedConfig parameterizes the GNP-style embedding.
	EmbedConfig = coords.EmbedConfig
	// Embedding places hosts into Euclidean space.
	Embedding = coords.Embedding
	// TransitStubConfig parameterizes the synthetic Internet topology.
	TransitStubConfig = coords.TransitStubConfig
)

// Decentralized-session types (see internal/protocol): the live overlay
// with join/leave/maintenance that the paper names as future work.
type (
	// Overlay is a live decentralized multicast session.
	Overlay = protocol.Overlay
	// OverlayConfig publishes the session's grid parameters.
	OverlayConfig = protocol.Config
	// OpStats counts one operation's control messages.
	OpStats = protocol.OpStats
	// OverlayTransport delivers (or drops, delays, duplicates) control
	// messages between overlay nodes.
	OverlayTransport = protocol.Transport
	// RetryPolicy bounds per-message retransmission.
	RetryPolicy = protocol.RetryPolicy
	// OverlayFaultConfig tunes retries and the failure detector.
	OverlayFaultConfig = protocol.FaultConfig
	// MaintenanceStats reports one heartbeat/repair round.
	MaintenanceStats = protocol.MaintenanceStats
	// OverlayAdmission is the token-bucket join admission control.
	OverlayAdmission = protocol.Admission
	// RetryAfter is the load-shedding error carrying a retry hint.
	RetryAfter = protocol.RetryAfter
)

// Decentralized-session constructors.
var (
	// NewOverlay starts a session containing only the source.
	NewOverlay = protocol.New
	// SuggestOverlayK sizes the published grid for an expected membership.
	SuggestOverlayK = protocol.SuggestK
	// DefaultOverlayFaultConfig is the retry/detector tuning used when none
	// is supplied.
	DefaultOverlayFaultConfig = protocol.DefaultFaultConfig
	// ErrJoinQueued reports a join parked on the admission queue (it will
	// be admitted by an upcoming maintenance round).
	ErrJoinQueued = protocol.ErrJoinQueued
)

// Crash-safe state (see internal/snapshot, internal/protocol, and
// internal/faultplane): versioned, checksummed, deterministic snapshots of
// live sessions, atomic file rotation, restore into a byte-identical
// session, in-place rejoin of crashed members (Overlay.Restart), and a
// seeded kill-point harness for crash-recovery testing (DESIGN.md §2k).
type (
	// OverlaySnapshotConfig schedules automatic snapshots on the session's
	// maintenance-round clock (OverlayConfig.Snapshot).
	OverlaySnapshotConfig = protocol.SnapshotConfig
	// KillPlan is a deterministic crash schedule over named kill points.
	KillPlan = faultplane.KillPlan
	// KillEvent schedules one crash: die on the Hit-th crossing of Point.
	KillEvent = faultplane.KillEvent
	// KilledError reports that a kill plan fired.
	KilledError = faultplane.KilledError
)

// Crash-safe state constructors and helpers.
var (
	// RestoreOverlay reads one overlay snapshot and returns a session that
	// resumes exactly where WriteSnapshot left off.
	RestoreOverlay = protocol.Restore
	// RestoreOverlayBytes is RestoreOverlay for a blob already in memory
	// (received over a network, say), skipping the reader copy.
	RestoreOverlayBytes = protocol.RestoreBytes
	// RestoreOverlayFile is RestoreOverlay over a snapshot file.
	RestoreOverlayFile = protocol.RestoreFile
	// RestoreOverlayGroupSet restores a multi-session group-set snapshot
	// onto a fresh transport.
	RestoreOverlayGroupSet = protocol.RestoreGroupSet
	// NewKillPlan builds a crash schedule from explicit events.
	NewKillPlan = faultplane.NewKillPlan
	// SeededKillEvent derives one crash deterministically from a seed.
	SeededKillEvent = faultplane.SeededKillEvent
	// ErrSnapshotCorrupt reports a snapshot rejected by checksum, framing,
	// or semantic validation (errors.Is-matchable through every restore
	// path; torn writes land here, never in a panic).
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotVersion reports an intact snapshot written by another
	// format version (a newer build's, say), as opposed to a torn one.
	ErrSnapshotVersion = snapshot.ErrVersion
)

// Fault-injection types (see internal/faultplane): a deterministic
// adversarial network for exercising the overlay protocol.
type (
	// FaultScenario configures seeded loss, duplication, delay, and crashes.
	FaultScenario = faultplane.Scenario
	// FaultPlane is the seeded transport implementing OverlayTransport.
	FaultPlane = faultplane.Plane
	// FaultOutcome is the fate of a single message attempt.
	FaultOutcome = faultplane.Outcome
	// PartitionEvent schedules a network split and its heal on the
	// plane's virtual round clock.
	PartitionEvent = faultplane.PartitionEvent
)

// NewFaultPlane validates a scenario and returns an active fault plane.
func NewFaultPlane(sc FaultScenario) (*FaultPlane, error) { return faultplane.New(sc) }

// LinkDrop returns a deterministic per-(edge, packet) drop predicate for
// SimConfig.Drop, matching the control plane's loss model on the data path.
var LinkDrop = faultplane.LinkDrop

// Kinetic-drift types (see internal/coords and internal/protocol): seeded
// coordinate drift, eq. 7 certificate monitoring, and policy-driven local
// repair (DESIGN.md §2h).
type (
	// DriftModel tracks true vs estimated coordinates under seeded drift.
	DriftModel = coords.DriftModel
	// DriftModelConfig parameterizes the drift motion: steady velocities,
	// route-change jumps, staleness inflation, and the bounding disk.
	DriftModelConfig = coords.DriftConfig
	// OverlayDriftConfig tunes the overlay's kinetic control loop: the
	// re-estimation cadence, degradation threshold, and repair policy.
	OverlayDriftConfig = protocol.DriftConfig
	// OverlayRepairPolicy selects the reaction to certificate degradation.
	OverlayRepairPolicy = protocol.RepairPolicy
	// TreeCertificate is the eq. 7 certificate a rebuild freezes: the
	// analytic radius bound and the radius the tree realized at build time.
	TreeCertificate = core.Certificate
)

// Kinetic repair policies: monitor only, certificate-triggered dirty-cell
// repair, or a full rebuild on every re-estimation sweep.
const (
	OverlayRepairNone  = protocol.RepairNone
	OverlayRepairLocal = protocol.RepairLocal
	OverlayRepairFull  = protocol.RepairFull
)

// Kinetic-drift constructors.
var (
	// NewDriftModel validates a drift config and returns an empty model at
	// epoch zero; attach it to a session with Overlay.SetDrift.
	NewDriftModel = coords.NewDriftModel
	// ParseOverlayRepairPolicy parses the CLI spelling of a repair policy
	// (none, local, full).
	ParseOverlayRepairPolicy = protocol.ParseRepairPolicy
)

// Coordinate-substrate constructors.
var (
	// NewDelayMatrix allocates a zero delay matrix.
	NewDelayMatrix = coords.NewMatrix
	// EuclideanMatrix synthesizes delays from planar positions plus noise.
	EuclideanMatrix = coords.EuclideanMatrix
	// TransitStub synthesizes an Internet-like delay matrix.
	TransitStub = coords.TransitStub
	// Embed runs the GNP-style two-phase embedding.
	Embed = coords.Embed
	// EmbeddingErrors returns per-pair relative embedding errors.
	EmbeddingErrors = coords.RelativeErrors
)

// VizOptions tunes SVG tree rendering.
type VizOptions = viz.Options

// RenderSVG draws a tree over its planar points as an SVG document
// (points[i] is node i's position; the root is highlighted).
func RenderSVG(w io.Writer, t *Tree, points []Point2, opts VizOptions) error {
	return viz.RenderSVG(w, t, points, opts)
}
