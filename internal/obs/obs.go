// Package obs is the repo's dependency-free observability layer: a metrics
// registry holding named counters, gauges, fixed-bucket histograms, and
// hierarchical timing spans, with a Snapshot that renders to a stable text
// format and to JSON.
//
// Design constraints, in order:
//
//   - Zero overhead when absent. Every accessor and mutator is nil-safe: a
//     nil *Registry yields nil metric handles whose methods return after a
//     single nil check, and Start returns an inert Span without reading the
//     clock. Instrumented code therefore needs no "if enabled" scaffolding,
//     and uninstrumented builds stay byte-identical in output and within
//     noise in the build benchmarks.
//   - Safe under full concurrency. Metric mutation is atomic (an enabled
//     check in front of an atomic add); handle resolution takes a short
//     mutex only on first use per name. Any number of goroutines may share
//     one registry.
//   - Deterministic rendering. Snapshots list every family sorted by name,
//     so two snapshots of equal state are byte-identical.
//
// Timing spans are hierarchical by name: "build/wire/bisect" renders
// indented under "build/wire" under "build". A span accumulates count,
// total and max duration, so per-cell spans fired thousands of times stay
// cheap to store and meaningful to read; ResolveSpan looks such a name up
// once, so each of those thousands of Starts skips the registry mutex.
//
// Counter funcs (RegisterCounterFunc) publish externally-owned totals —
// e.g. the protocol's SessionStats fields — into the snapshot without
// double bookkeeping: the owning struct stays the single source of truth
// and the registry evaluates it at snapshot time.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a metrics namespace. The zero value is not usable; call New.
// A nil *Registry is valid everywhere and disables all collection.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanStat
	funcs    map[string]func() int64

	labels   map[string]map[string]bool // labeled series -> admitted values (labels.go)
	labelCap int                        // 0 means DefaultLabelCap
}

// New returns an empty, enabled registry.
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*spanStat),
		funcs:    make(map[string]func() int64),
	}
	r.enabled.Store(true)
	return r
}

// SetEnabled toggles collection. A disabled registry keeps its handles valid
// but every mutation returns after one atomic load.
func (r *Registry) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
}

// Enabled reports whether the registry currently collects.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// Counter resolves (creating on first use) the named counter. Returns nil
// on a nil registry; the nil handle's methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{r: r}
		r.counters[name] = c
	}
	return c
}

// Gauge resolves (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{r: r}
		r.gauges[name] = g
	}
	return g
}

// DefaultBuckets are the histogram bucket upper bounds used when none are
// supplied: log-spaced from 1 microsecond to 10 seconds, natural for the
// phase and per-cell timings this repo records (values in seconds).
var DefaultBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
}

// Histogram resolves (creating on first use) the named histogram with the
// default buckets. Buckets are fixed at creation; a later call with the same
// name returns the existing histogram regardless of buckets.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, DefaultBuckets)
}

// HistogramBuckets is Histogram with explicit bucket upper bounds, which
// must be sorted ascending.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			r:       r,
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		h.max.Store(math.Float64bits(math.Inf(-1)))
		r.hists[name] = h
	}
	return h
}

// RegisterCounterFunc publishes fn's value under name at snapshot time. The
// callee owns the total; the registry never stores it. fn must be safe to
// call from the snapshotting goroutine. Re-registering a name replaces the
// function.
func (r *Registry) RegisterCounterFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	r *Registry
	v atomic.Int64
}

// Add increments the counter. No-op on a nil handle or a disabled registry.
func (c *Counter) Add(n int64) {
	if c == nil || !c.r.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float metric.
type Gauge struct {
	r    *Registry
	bits atomic.Uint64
	set  atomic.Bool
}

// Set stores v. No-op on a nil handle or a disabled registry.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.r.enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
	g.set.Store(true)
}

// Value returns the last stored value (0 on a nil or never-set handle).
func (g *Gauge) Value() float64 {
	if g == nil || !g.set.Load() {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution with exact count, sum and max.
// Quantiles are estimated by linear interpolation inside the bucket that
// holds the target rank.
type Histogram struct {
	r       *Registry
	bounds  []float64
	buckets []atomic.Int64 // buckets[i] counts v <= bounds[i]; last is +Inf
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
	max     atomic.Uint64 // float64 bits, CAS-maximized
}

// Observe records one value. No-op on a nil handle or a disabled registry.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.r.enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of recorded values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Max returns the largest recorded value (0 before the first observation).
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets: the
// target rank's bucket is found and the value interpolated linearly across
// it. The top (overflow) bucket reports the exact max instead.
//
// A histogram with no observations returns exactly 0 for every q, as does a
// nil receiver — the same "absent reads zero" convention as Count, Sum, and
// Max, which snapshot consumers (JSON, text, OpenMetrics summaries) rely on
// for stable empty-family rendering. This is a documented guarantee, not an
// implementation accident.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			if i == len(h.bounds) {
				return h.Max()
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if hi > h.Max() {
				hi = h.Max()
			}
			if hi < lo {
				return lo
			}
			frac := (rank - seen) / n
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		seen += n
	}
	return h.Max()
}

// spanStat accumulates one span name's timings; mutation is atomic so
// concurrent spans on the same name (per-cell wiring) need no lock.
type spanStat struct {
	count   atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

// Span is one running timing region. The zero Span (from a nil or disabled
// registry) is inert. Spans are values: no allocation per Start.
type Span struct {
	st    *spanStat
	start time.Time
}

// Start opens a timing span under the given hierarchical name (path
// segments joined by '/', e.g. "build/bucketing"). End closes it. On a nil
// or disabled registry the returned span is inert and the clock is not read.
func (r *Registry) Start(name string) Span { return r.ResolveSpan(name).Start() }

// SpanHandle is a span name resolved once, for code that opens the same span
// many times — once per grid cell of a build — without taking the registry
// mutex and a map lookup per Start. The zero handle is inert.
type SpanHandle struct {
	r  *Registry
	st *spanStat
}

// ResolveSpan resolves (creating on first use) the named span. On a nil or
// disabled registry it registers nothing and returns the inert zero handle,
// which stays inert if the registry is enabled later: resolve once per pass,
// not once per program.
func (r *Registry) ResolveSpan(name string) SpanHandle {
	if r == nil || !r.enabled.Load() {
		return SpanHandle{}
	}
	r.mu.Lock()
	st, ok := r.spans[name]
	if !ok {
		st = &spanStat{}
		r.spans[name] = st
	}
	r.mu.Unlock()
	return SpanHandle{r: r, st: st}
}

// Start opens a span under the handle's name. It honours the enabled gate on
// every call: on the zero handle or a disabled registry the span is inert and
// the clock is not read.
func (h SpanHandle) Start() Span {
	if h.st == nil || !h.r.enabled.Load() {
		return Span{}
	}
	return Span{st: h.st, start: time.Now()}
}

// End records the elapsed time since Start. No-op on an inert span. A span
// may be Ended once; reuse requires a fresh Start.
func (s Span) End() {
	if s.st == nil {
		return
	}
	d := int64(time.Since(s.start))
	s.st.count.Add(1)
	s.st.totalNs.Add(d)
	for {
		old := s.st.maxNs.Load()
		if d <= old {
			break
		}
		if s.st.maxNs.CompareAndSwap(old, d) {
			break
		}
	}
}
