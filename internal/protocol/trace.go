package protocol

import (
	"omtree/internal/obs/trace"
)

// Trace attaches an event recorder to the session: every subsequent
// operation (join, leave, rebuild, maintenance round) mints a trace id and
// lands its exchanges, retries, fault-plane verdicts, and detector
// transitions on that timeline. Rebuild forwards the recorder to
// the centralized build, so a full session reads as one trace file. A nil
// recorder (the default) detaches tracing; like the metrics registry it
// never influences protocol behavior — traced and untraced runs of one
// seeded scenario are byte-identical in every observable except the
// timeline itself.
func (o *Overlay) Trace(rec *trace.Recorder) { o.rec = rec }

// Recorder returns the attached event recorder (nil when tracing is off).
func (o *Overlay) Recorder() *trace.Recorder { return o.rec }

// emit records one instant on the current operation's timeline.
func (o *Overlay) emit(kind string, from, to int32, note string) {
	if o.rec.Enabled() {
		o.rec.Emit(o.curTrace, 0, kind, from, to, note)
	}
}

// beginOp mints a trace id for one protocol operation and opens its
// timeline slice; the returned closure closes the slice with an outcome
// note and restores the enclosing trace id. Operations never run
// concurrently, so a plain field carries the current id.
func (o *Overlay) beginOp(kind string, id int32, note string) func(endNote string) {
	if !o.rec.Enabled() {
		return func(string) {}
	}
	prev := o.curTrace
	o.curTrace = o.rec.NewTrace()
	o.rec.Emit(o.curTrace, 0, kind+".begin", id, -1, note)
	tid := o.curTrace
	return func(endNote string) {
		o.rec.Emit(tid, 0, kind+".end", id, -1, endNote)
		o.curTrace = prev
	}
}
