package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"omtree/internal/obs/trace"
)

// tracer records the benchmark's spans around each timed call into a
// layer's public functions. Spans land in the repository's own event
// recorder as ".begin"/".end" pairs stamped with wall-clock seconds since
// the run started: each carries its span id, the sample's trace id, and its
// parent span id in the note. Nothing is written until the run ends.
//
// A span is named "<layer>.<call>"; the layer is what its self time is
// charged to.
type tracer struct {
	rec  *trace.Recorder
	t0   time.Time
	tid  uint32
	open []uint32 // enclosing span ids, innermost last
}

// traceCapacity bounds the in-memory trace; a run that overflows it fails
// rather than reporting self times over a truncated trace.
const traceCapacity = 1 << 18

func newTracer() *tracer {
	return &tracer{rec: trace.New(traceCapacity), t0: time.Now()}
}

// newSample mints the trace id the next sample's spans share.
func (t *tracer) newSample() {
	t.tid = t.rec.NewTrace()
	t.open = t.open[:0]
}

// span opens a span; call the returned function to close it. On a nil or
// disabled tracer both are no-ops.
func (t *tracer) span(name string) func() {
	if t == nil || !t.rec.Enabled() {
		return func() {}
	}
	id := t.rec.NewSpan()
	parent := uint32(0)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.rec.EmitAt(t.now(), t.tid, id, name+".begin", -1, -1, "parent="+strconv.FormatUint(uint64(parent), 10))
	t.open = append(t.open, id)
	return func() {
		t.open = t.open[:len(t.open)-1]
		t.rec.EmitAt(t.now(), t.tid, id, name+".end", -1, -1, "")
	}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// spanRec is one closed span rebuilt from the recorded events.
type spanRec struct {
	name       string
	trace      uint32
	parent     uint32
	start, end float64
	child      float64 // summed duration of its direct children
}

// spans rebuilds the closed spans from the recorder, keyed by span id.
func (t *tracer) spans() (map[uint32]*spanRec, error) {
	if d := t.rec.Dropped(); d > 0 {
		return nil, fmt.Errorf("trace overflowed its %d-event ring (%d dropped)", traceCapacity, d)
	}
	out := map[uint32]*spanRec{}
	for _, e := range t.rec.Events() {
		switch {
		case strings.HasSuffix(e.Kind, ".begin"):
			p, err := strconv.ParseUint(strings.TrimPrefix(e.Note, "parent="), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("span %d: bad parent note %q", e.SpanID, e.Note)
			}
			out[e.SpanID] = &spanRec{name: strings.TrimSuffix(e.Kind, ".begin"), trace: e.TraceID,
				parent: uint32(p), start: e.T}
		case strings.HasSuffix(e.Kind, ".end"):
			s, ok := out[e.SpanID]
			if !ok {
				return nil, fmt.Errorf("span %d ends without a beginning", e.SpanID)
			}
			s.end = e.T
		}
	}
	for _, s := range out {
		if p, ok := out[s.parent]; ok {
			p.child += s.end - s.start
		}
	}
	return out, nil
}

// selfTimes returns, per layer, the median over traced samples of the
// layer's summed self time in milliseconds: each span's duration minus the
// part its child spans cover.
func (t *tracer) selfTimes() (map[string]float64, error) {
	spans, err := t.spans()
	if err != nil {
		return nil, err
	}
	perTrace := map[uint32]map[string]float64{}
	layers := map[string]bool{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.name, ".")
		layers[layer] = true
		if perTrace[s.trace] == nil {
			perTrace[s.trace] = map[string]float64{}
		}
		perTrace[s.trace][layer] += 1e3 * (s.end - s.start - s.child)
	}
	out := map[string]float64{}
	for layer := range layers {
		var xs []float64
		for _, m := range perTrace {
			xs = append(xs, m[layer])
		}
		out[layer] = median(xs)
	}
	return out, nil
}

// writeChrome writes the recorded spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.rec.WriteChromeJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// layerFromTrace adds each layer's self time to the per-layer metrics as
// self.<layer>_ms; report flags a layer missing from the metric list.
func (h *harness) layerFromTrace() {
	self, err := h.tr.selfTimes()
	if !h.op(err) {
		return
	}
	for layer, ms := range self {
		h.layer["self."+layer+"_ms"] = metric{ms, "ms"}
	}
}
