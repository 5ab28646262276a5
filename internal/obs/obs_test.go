package obs

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	r.SetEnabled(true) // must not panic
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	r.RegisterCounterFunc("f", func() int64 { return 7 })
	sp := r.Start("s")
	sp.End()
	if v := r.Counter("c").Value(); v != 0 {
		t.Errorf("nil counter value = %d", v)
	}
	if v := r.Gauge("g").Value(); v != 0 {
		t.Errorf("nil gauge value = %v", v)
	}
	if h := r.Histogram("h"); h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram not inert")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Spans) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestDisabledRegistryCollectsNothing(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	r.SetEnabled(false)
	c.Add(3)
	g.Set(9)
	h.Observe(1)
	sp := r.Start("s")
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("disabled registry collected")
	}
	if _, ok := r.Snapshot().Span("s"); ok {
		t.Error("disabled registry recorded a span")
	}
	r.SetEnabled(true)
	c.Add(2)
	if c.Value() != 2 {
		t.Errorf("re-enabled counter = %d, want 2", c.Value())
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("protocol/retries")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if r.Counter("protocol/retries") != c {
		t.Error("same name resolved to a different counter")
	}
	g := r.Gauge("build/workers")
	g.Set(8)
	g.Set(4)
	if g.Value() != 4 {
		t.Errorf("gauge = %v, want 4", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.HistogramBuckets("lat", []float64{1, 2, 4, 8, 16})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v % 16))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 15 {
		t.Errorf("max = %v, want 15", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 < 4 || p50 > 8 {
		t.Errorf("p50 = %v, want within (4, 8]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 8 || p99 > 15 {
		t.Errorf("p99 = %v, want within (8, 15]", p99)
	}
	if q := h.Quantile(1); q != h.Max() {
		t.Errorf("q1 = %v, want max %v", q, h.Max())
	}
	var sum float64
	for v := 1; v <= 100; v++ {
		sum += float64(v % 16)
	}
	if math.Abs(h.Sum()-sum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), sum)
	}
}

// TestHistogramQuantileEmpty pins the documented empty-case contract: a
// histogram with no observations returns exactly 0 for every q, as does a
// nil receiver. Snapshot renderers and the OpenMetrics exporter rely on
// this for stable empty-family output.
func TestHistogramQuantileEmpty(t *testing.T) {
	r := New()
	h := r.Histogram("empty")
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want exactly 0", q, got)
		}
	}
	var nilH *Histogram
	for _, q := range []float64{0, 0.5, 1} {
		if got := nilH.Quantile(q); got != 0 {
			t.Errorf("nil histogram Quantile(%v) = %v, want exactly 0", q, got)
		}
	}
	// The guarantee holds after observations drain through a snapshot (the
	// registry never resets histograms, but an all-zero-bucket family must
	// still render 0s, not NaNs).
	snap := r.Snapshot()
	for _, hs := range snap.Histograms {
		if hs.Name == "empty" && (hs.P50 != 0 || hs.P95 != 0 || hs.P99 != 0) {
			t.Errorf("empty histogram snapshot quantiles = %+v, want zeros", hs)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := New()
	h := r.HistogramBuckets("big", []float64{1})
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.5); got != 200 {
		t.Errorf("overflow-bucket quantile = %v, want exact max 200", got)
	}
}

func TestSpansAccumulate(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		sp := r.Start("build/bucketing")
		time.Sleep(time.Millisecond)
		sp.End()
	}
	snap := r.Snapshot()
	sp, ok := snap.Span("build/bucketing")
	if !ok {
		t.Fatal("span missing from snapshot")
	}
	if sp.Count != 3 {
		t.Errorf("span count = %d, want 3", sp.Count)
	}
	if sp.TotalSec <= 0 || sp.MaxSec <= 0 || sp.MaxSec > sp.TotalSec {
		t.Errorf("span timing inconsistent: total=%v max=%v", sp.TotalSec, sp.MaxSec)
	}
}

func TestResolvedSpanHandle(t *testing.T) {
	var nilReg *Registry
	nilReg.ResolveSpan("s").Start().End() // inert, must not panic

	off := New()
	off.SetEnabled(false)
	h := off.ResolveSpan("s")
	h.Start().End()
	off.SetEnabled(true)
	h.Start().End() // resolved while disabled: stays inert
	if _, ok := off.Snapshot().Span("s"); ok {
		t.Error("handle resolved on a disabled registry registered its span")
	}

	r := New()
	h = r.ResolveSpan("build/wire/bisect")
	h.Start().End()
	r.Start("build/wire/bisect").End() // the same accumulator as the handle
	r.SetEnabled(false)
	h.Start().End() // the enabled gate holds on every Start
	r.SetEnabled(true)
	sp, ok := r.Snapshot().Span("build/wire/bisect")
	if !ok || sp.Count != 2 {
		t.Errorf("span = %+v, want count 2", sp)
	}
}

func TestCounterFuncsMergeIntoSnapshot(t *testing.T) {
	r := New()
	var owned int64 = 41
	r.RegisterCounterFunc("protocol/joins", func() int64 { return owned })
	r.Counter("protocol/joins").Inc() // live counter under the same name sums
	snap := r.Snapshot()
	if got := snap.Counter("protocol/joins"); got != 42 {
		t.Errorf("merged counter = %d, want 42", got)
	}
	owned = 100
	if got := r.Snapshot().Counter("protocol/joins"); got != 101 {
		t.Errorf("counter func not re-evaluated: %d", got)
	}
}

func TestSnapshotRenderingStable(t *testing.T) {
	r := New()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(3.5)
	r.Histogram("h").Observe(0.001)
	sp := r.Start("x/y")
	sp.End()
	sp2 := r.Start("x")
	sp2.End()

	s1, s2 := r.Snapshot(), r.Snapshot()
	t1, t2 := s1.Text(), s2.Text()
	if t1 != t2 {
		t.Errorf("snapshot text unstable:\n%s\nvs\n%s", t1, t2)
	}
	if !strings.Contains(t1, "counters:") || !strings.Contains(t1, "spans:") {
		t.Errorf("text missing sections:\n%s", t1)
	}
	if strings.Index(t1, "  a ") > strings.Index(t1, "  b ") {
		t.Errorf("counters not sorted:\n%s", t1)
	}

	data, err := s1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("a") != 1 || back.Counter("b") != 2 {
		t.Errorf("JSON round-trip lost counters: %+v", back)
	}
}

// TestRegistryHammer drives every metric kind from GOMAXPROCS goroutines
// concurrently with snapshotting — the -race run of this test is the
// registry's thread-safety proof.
func TestRegistryHammer(t *testing.T) {
	r := New()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hammer/counter")
			h := r.Histogram("hammer/hist")
			g := r.Gauge("hammer/gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.Counter("hammer/resolved-each-time").Inc()
				h.Observe(float64(i%100) * 1e-5)
				g.Set(float64(w))
				sp := r.Start("hammer/span")
				sp.End()
				if i%500 == 0 {
					_ = r.Snapshot() // snapshot while mutating
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	want := int64(workers * perWorker)
	if got := snap.Counter("hammer/counter"); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := snap.Counter("hammer/resolved-each-time"); got != want {
		t.Errorf("re-resolved counter = %d, want %d", got, want)
	}
	sp, ok := snap.Span("hammer/span")
	if !ok || sp.Count != want {
		t.Errorf("span count = %+v, want %d", sp, want)
	}
	var hs *HistogramSnap
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "hammer/hist" {
			hs = &snap.Histograms[i]
		}
	}
	if hs == nil || hs.Count != want {
		t.Errorf("histogram = %+v, want count %d", hs, want)
	}
}
