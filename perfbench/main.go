// Command perfbench is the repository benchmark: it drives the omtree facade
// and the exported functions of its internal layers through five workloads,
// checks every output, and prints end-to-end metrics (untraced run) or
// per-layer metrics (traced run). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload table1_1m --seed 1 --seconds 20 --trace 0
//
// Every workload is a closed loop with a single caller. Each timed sample
// starts from byte-identical state, runs after a full collection taken
// outside its timer, and times no interval shorter than about a millisecond.
// See README.md for the workloads, the metrics and the steadiness design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(h *harness) error{
	"table1_100k": func(h *harness) error { return runTable1(h, table1Inputs["table1_100k"]) },
	"table1_1m":   func(h *harness) error { return runTable1(h, table1Inputs["table1_1m"]) },
	"table1_3d":   func(h *harness) error { return runTable1(h, table1Inputs["table1_3d"]) },
	"session":     runSession,
	"groups":      runGroups,
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median of these.
const setupReps = 3

// minSamples is the fewest timed samples a run takes, however long they
// last: eleven, so every run's tail has ten samples above it.
const minSamples = 11

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time of the sample loop")
	traced := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its Chrome JSON trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s}, --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ","))
		return 2
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2) // the same two workers on every machine
	}

	h := newHarness(*seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err := drive(h); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if h.tr != nil {
		h.layerFromTrace()
		path := fmt.Sprintf("%s/%s-seed%d.json", *traceDir, *name, *seed)
		if err := h.tr.writeChrome(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %s (%d events, %d dropped)\n", path, h.tr.rec.Len(), h.tr.rec.Dropped())
	}
	return h.report(*name, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// harness carries one run's settings, its operation accounting, and the
// metrics it reports.
type harness struct {
	seed    uint64
	seconds time.Duration
	tr      *tracer // nil on untraced runs

	attempted, failed int
	failures          []string

	e2e   map[string]metric // printed as the result on untraced runs
	layer map[string]metric // printed as the result on traced runs
	info  []string          // human-readable lines printed before the result
	fixed map[string]float64
	cal   []float64 // calibration loop times (ms), one per sample
}

func newHarness(seed uint64, seconds time.Duration, traced bool) *harness {
	h := &harness{
		seed:    seed,
		seconds: seconds,
		e2e:     map[string]metric{},
		layer:   map[string]metric{},
		fixed:   map[string]float64{},
	}
	if traced {
		h.tr = newTracer()
	}
	return h
}

// op counts one attempted operation and reports whether it succeeded.
func (h *harness) op(err error) bool {
	h.attempted++
	if err != nil {
		h.fail("%v", err)
		return false
	}
	return true
}

// check counts one output check as an operation; a false ok fails it.
func (h *harness) check(ok bool, format string, args ...any) {
	h.attempted++
	if !ok {
		h.fail(format, args...)
	}
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.failures) < 10 {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

// same checks that a figure which depends on the seed alone repeats exactly
// across every set-up and sample of the run.
func (h *harness) same(name string, v float64) {
	want, seen := h.fixed[name]
	if !seen {
		h.fixed[name] = v
		return
	}
	h.check(v == want, "%s is not deterministic: %v after %v", name, v, want)
}

// setup runs fn setupReps times and reports the median as setup_s. The
// state the last repetition leaves behind is what the samples run on.
func (h *harness) setup(fn func() error) error {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	runtime.GC()
	h.e2e["setup_s"] = metric{median(secs), "s"}
	h.note("setup_s", secs, "s")
	return nil
}

// loop calls sample until the run's measuring time is spent, and at least
// minSamples times. A full collection and a pass of the calibration loop
// run before each call, outside the sample's own timers. On a traced run
// every other sample is traced, so the traced and untraced halves
// interleave over the same stretch of time.
func (h *harness) loop(sample func(traced bool) error) (int, error) {
	start := time.Now()
	n := 0
	for ; n < minSamples || time.Since(start) < h.seconds; n++ {
		traced := h.tr != nil && n%2 == 0
		if h.tr != nil {
			h.tr.rec.SetEnabled(traced)
			if traced {
				h.tr.newSample()
			}
		}
		runtime.GC()
		h.cal = append(h.cal, calibrate())
		if err := sample(traced); err != nil {
			return n, err
		}
	}
	return n, nil
}

// timing records a series of sample times under name: the median as a
// metric and a line with the tail and the sample count.
func (h *harness) timing(dst map[string]metric, name string, xs []float64, unit string) {
	dst[name] = metric{median(xs), unit}
	h.note(name, xs, unit)
}

// note adds a human-readable line for a series: median, tail, count.
func (h *harness) note(name string, xs []float64, unit string) {
	v, p := tail(xs)
	h.info = append(h.info, fmt.Sprintf("%-34s median %12.4f %-5s tail p%.0f %12.4f  (n=%d)",
		name, median(xs), unit, 100*p, v, len(xs)))
}

// tailMetric records the tail of xs as a metric.
func (h *harness) tailMetric(dst map[string]metric, name string, xs []float64, unit string) {
	v, _ := tail(xs)
	dst[name] = metric{v, unit}
}

// overhead reports the tracing overhead: the median traced sample minus
// the median untraced one, both taken in the same traced run.
func (h *harness) overhead(traced, untraced []float64) {
	h.layer["trace.overhead_ms"] = metric{median(traced) - median(untraced), "ms"}
	h.info = append(h.info, fmt.Sprintf("tracing overhead: %.4f ms (traced median %.4f ms, n=%d; untraced %.4f ms, n=%d)",
		median(traced)-median(untraced), median(traced), len(traced), median(untraced), len(untraced)))
}

// report prints the metrics of this run and the result line. It returns the
// exit code: non-zero when any operation failed.
func (h *harness) report(name string, stdout, stderr io.Writer) int {
	metrics, want, kind := h.e2e, endToEnd, "end-to-end"
	if h.tr != nil {
		metrics, want, kind = h.layer, perLayer, "per-layer"
	}
	bad := complete(metrics, want, h.tr != nil)
	h.check(len(bad) == 0, "metrics missing or not listed with their unit: %v", bad)
	speed := h.speedFactor()
	scaled := map[string]metric{}
	for n, m := range metrics {
		if timeUnits[m.Unit] {
			m.Value *= speed
		}
		scaled[n] = m
	}
	metrics = scaled

	fmt.Fprintf(stdout, "workload %s seed %d: %d operations, %d failed (%.4f%%)\n",
		name, h.seed, h.attempted, h.failed, 100*float64(h.failed)/math.Max(1, float64(h.attempted)))
	fmt.Fprintln(stdout, "wall-clock series:")
	for _, line := range h.info {
		fmt.Fprintln(stdout, "  "+line)
	}
	fmt.Fprintf(stdout, "calibration loop: median %.4f ms over %d passes, reference %.1f ms: wall times below are scaled by %.4f\n",
		median(h.cal), len(h.cal), calRefMs, speed)
	fmt.Fprintf(stdout, "%s metrics, timings at the reference speed:\n", kind)
	var names []string
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, f := range h.failures {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", f)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{h.failed == 0, h.attempted, h.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if h.failed > 0 {
		return 1
	}
	return 0
}

// median returns the middle of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest order statistic of xs with at least ten samples
// above it, and its percentile. With ten samples or fewer it returns the
// maximum (percentile 1).
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		return s[len(s)-1], 1
	}
	return s[i], float64(i+1) / float64(len(s))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memPoint is a reading of the runtime's allocation counters.
type memPoint struct {
	alloc uint64 // cumulative heap bytes allocated
	gcs   uint32 // completed collections
	heap  uint64 // heap bytes in use
}

func readMem() memPoint {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memPoint{m.TotalAlloc, m.NumGC, m.HeapInuse}
}
