package core

import (
	"strconv"

	"omtree/internal/obs"
	"omtree/internal/obs/flight"
	"omtree/internal/obs/trace"
)

// instr bundles a build's observability handles: the metrics registry
// (phase spans, worker-pool gauges) and the event recorder with the trace
// id minted for this run, so every phase event of one build lands on one
// timeline. Both halves are nil-safe; the zero instr costs a nil check per
// instrumentation point and never influences the resulting tree.
type instr struct {
	obs *obs.Registry
	rec *trace.Recorder
	fl  *flight.Recorder
	tid uint32

	bisect obs.SpanHandle // per-cell build/wire/bisect, resolved by wiring
}

// newInstr mints the run's trace id and emits build/run.begin. note names
// the run shape ("dim=2 n=1000"); the caller should defer finish().
func newInstr(o options, dim, n int) instr {
	in := instr{obs: o.obs, rec: o.trace, fl: o.flight}
	if in.rec.Enabled() {
		in.tid = in.rec.NewTrace()
		in.rec.Emit(in.tid, 0, "build/run.begin", -1, -1,
			"dim="+strconv.Itoa(dim)+" n="+strconv.Itoa(n))
	}
	return in
}

// finish closes the run's timeline slice and lands one flight sample so the
// just-updated build/* series hit the health trajectory immediately (safe
// on the zero instr).
func (in instr) finish() {
	in.rec.Emit(in.tid, 0, "build/run.end", -1, -1, "")
	in.fl.SampleNow("build")
}

// phase opens one build phase: an obs span plus matching .begin/.end trace
// events. Call the returned closure exactly where the span would end.
func (in instr) phase(name string) func() {
	sp := in.obs.Start(name)
	in.rec.Emit(in.tid, 0, name+".begin", -1, -1, "")
	return func() {
		in.rec.Emit(in.tid, 0, name+".end", -1, -1, "")
		sp.End()
	}
}

// wiring returns in with the per-cell span resolved, once for one wiring
// pass instead of once per cell.
func (in instr) wiring() instr {
	in.bisect = in.obs.ResolveSpan("build/wire/bisect")
	return in
}

// cell emits the per-cell wiring instant. Workers of a parallel build emit
// concurrently through the recorder's internal lock; event order between
// cells then follows scheduler interleaving, so only serial builds promise
// byte-stable timelines.
func (in instr) cell(id int, rep int32) {
	if in.rec.Enabled() {
		in.rec.Emit(in.tid, 0, "build/wire/cell", rep, -1, "cell="+strconv.Itoa(id))
	}
}
