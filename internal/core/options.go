package core

import (
	"fmt"
	"runtime"

	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
)

// Variant selects the wiring style of Polar_Grid.
type Variant int

const (
	// VariantNatural is the paper's default wiring: two core links plus a
	// full Bisection fan-out per node (out-degree 6 in 2-D, 10 in 3-D,
	// 2^d + 2 in dimension d).
	VariantNatural Variant = iota + 1
	// VariantHybrid is an engineering middle ground for degree caps in
	// [4, natural): the natural core wiring (two links per representative)
	// combined with the out-degree-2 Bisection inside cells, for a total
	// out-degree of 4. It preserves asymptotic optimality (the in-cell arc
	// term doubles, which is still infinitesimal).
	VariantHybrid
	// VariantBinary is the §IV-A wiring with out-degree 2 at every node.
	VariantBinary
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantNatural:
		return "natural"
	case VariantHybrid:
		return "hybrid"
	case VariantBinary:
		return "binary"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// options collects the tunables of a Build call.
type options struct {
	maxOutDegree int // 0 = natural degree for the dimension
	forceK       int // 0 = automatic (largest feasible)
	kMax         int // 0 = grid.DefaultKMax
	workers      int // 0 = automatic (GOMAXPROCS above the size threshold)
	obs          *obs.Registry
	trace        *trace.Recorder
	flight       *flight.Recorder
}

// Option configures a Build call.
type Option func(*options)

// WithMaxOutDegree caps the out-degree of every node. Values at or above
// the dimension's natural degree select the natural variant; values in
// [2, natural) select the binary variant; values below 2 are rejected at
// build time.
func WithMaxOutDegree(d int) Option {
	return func(o *options) { o.maxOutDegree = d }
}

// WithForceK pins the number of grid rings instead of choosing the largest
// feasible value — an ablation hook. Build fails if the forced grid has an
// unoccupied interior cell.
func WithForceK(k int) Option {
	return func(o *options) { o.forceK = k }
}

// WithKMax caps the automatic ring search (useful to bound preprocessing
// cost on enormous inputs).
func WithKMax(k int) Option {
	return func(o *options) { o.kMax = k }
}

// WithParallelism sets the number of worker goroutines of the build
// pipeline: coordinate conversion, the sharded cell-bucketing pass,
// representative selection and per-cell wiring all fan out over this many
// workers. n == 1 forces the serial path; n <= 0 (the default) uses
// runtime.GOMAXPROCS(0), falling back to the serial path below a small
// problem-size threshold where goroutine overhead dominates. Parallel and
// serial builds of the same input produce identical trees.
func WithParallelism(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithObserver attaches a metrics registry to the build: phase timings land
// as spans under "build/..." (coordinate conversion, grid selection, cell
// bucketing, representative selection, core wiring, per-cell Bisection),
// worker-pool shape as gauges. A nil registry (the default) is free — every
// instrumentation point is a nil check — and metrics never influence the
// resulting tree: instrumented and uninstrumented builds are byte-identical.
func WithObserver(r *obs.Registry) Option {
	return func(o *options) { o.obs = r }
}

// WithTrace attaches an event recorder to the build: the run mints a trace
// id and emits begin/end events per phase plus one instant per wired cell,
// so a full session (build, then protocol churn, then maintenance) driven
// through one recorder reads as one causally-ordered timeline. Like
// WithObserver, a nil recorder is free and tracing never influences the
// resulting tree. Parallel builds emit cell events in scheduler order;
// serial builds are byte-deterministic.
func WithTrace(rec *trace.Recorder) Option {
	return func(o *options) { o.trace = rec }
}

// WithFlight attaches a flight recorder to the build: every completed build
// takes one "build" sample, so the registry's build/* series land on the
// health trajectory at the moment they change rather than whenever the next
// maintenance round happens to sample. Like the other observers, a nil
// recorder is free and sampling never influences the resulting tree.
func WithFlight(fr *flight.Recorder) Option {
	return func(o *options) { o.flight = fr }
}

// effectiveWorkers resolves the worker count for a build over n receivers.
// An explicit request > 1 is honored at any size (so tests can drive the
// parallel path on small inputs); the automatic default engages only where
// the fan-out pays for itself.
func (o options) effectiveWorkers(n int) int {
	switch {
	case o.workers == 1 || n < 2:
		return 1
	case o.workers > 1:
		return o.workers
	default:
		if w := runtime.GOMAXPROCS(0); w > 1 && n >= parallelBuildThreshold {
			return w
		}
		return 1
	}
}

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// variantFor maps a requested out-degree cap to a wiring variant and the
// degree cap actually enforced on the tree builder.
func variantFor(requested, natural int) (Variant, int, error) {
	if requested == 0 {
		requested = natural
	}
	switch {
	case requested >= natural:
		return VariantNatural, natural, nil
	case requested >= 4:
		return VariantHybrid, 4, nil
	case requested >= 2:
		return VariantBinary, 2, nil
	default:
		return 0, 0, fmt.Errorf("core: out-degree %d < 2 cannot span arbitrary point sets", requested)
	}
}
