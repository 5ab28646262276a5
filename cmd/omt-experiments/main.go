// Command omt-experiments regenerates the paper's evaluation: Table I and
// Figures 4–8, plus the baseline comparison.
//
//	omt-experiments -table1                 # Table I (disk, degrees 6 and 2)
//	omt-experiments -fig4 -fig5 -fig6 -fig7 # the 2-D figures
//	omt-experiments -fig8                   # 3-D unit ball, degrees 10 and 2
//	omt-experiments -baselines              # Polar_Grid vs prior heuristics
//	omt-experiments -drift                  # kinetic repair-policy frontier
//	omt-experiments -groups                 # multi-group shared-substrate sweep
//	omt-experiments -recovery               # crash×restart kill-point sweep
//	omt-experiments -all                    # everything
//
// By default the sweep runs sizes 100 .. 100,000 with 20 trials each, which
// finishes in minutes on a laptop. -paper selects the paper's exact setup
// (sizes up to 5,000,000, 200 trials) — budget considerable time and RAM.
// -sizes and -trials override either. -csv PATH additionally dumps the raw
// 2-D disk sweep as CSV (when a section drawn from it runs), and -json PATH
// every executed section's rows.
//
// -metrics FILE writes a JSON metrics snapshot (aggregated build-phase
// spans across every trial) on exit and embeds it in the -json manifest;
// -trace FILE writes the faults sweep's causal event timeline as Chrome
// trace-event JSON (requires -faults; load it in Perfetto); -flight FILE
// attaches a flight recorder to the drift sweep (requires -drift): every
// trial's maintenance rounds land registry samples with per-series rates in
// a bounded ring, -slo RULES watches them against declarative health rules,
// the ring is written to FILE as JSONL and a deterministic health report is
// appended to stdout; -openmetrics FILE writes the final registry state as
// Prometheus/OpenMetrics exposition text; -pprof ADDR serves net/http/pprof
// for live profiling. All are off by default and do not change any result.
// Every flag is checked first; output files, -csv and -json included, are
// then created up front, so a rejected command line touches no file and an
// unwritable path fails before the sweep starts. They are written after it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"omtree/internal/cliutil"
	"omtree/internal/experiment"
	"omtree/internal/obs"
	"omtree/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "omt-experiments:", err)
		os.Exit(1)
	}
}

var defaultSizes = []int{100, 500, 1000, 5000, 10000, 50000, 100000}

var paperSizes = []int{100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000, 5000000}

// section is one selectable part of the evaluation, selected by the flag
// of its name.
type section struct {
	name, usage string
	// disk marks the sections drawn from the 2-D disk sweep, whose rows
	// -csv writes.
	disk bool
	run  func(*sweep) error
}

// sections run and print in this order; -all selects every one.
var sections = []section{
	{"table1", "reproduce Table I", true, (*sweep).table1},
	{"fig4", "reproduce Figure 4 (delay vs bounds, degree 6)", true, (*sweep).fig4},
	{"fig5", "reproduce Figure 5 (degree 2 vs degree 6)", true, (*sweep).fig5},
	{"fig6", "reproduce Figure 6 (rings vs n)", true, (*sweep).fig6},
	{"fig7", "reproduce Figure 7 (running time)", true, (*sweep).fig7},
	{"fig8", "reproduce Figure 8 (3-D unit ball)", false, (*sweep).fig8},
	{"churn", "decentralized protocol vs centralized build", false, (*sweep).churn},
	{"dims", "delay convergence across dimensions 2..5", false, (*sweep).dims},
	{"scale", "large-n comparison vs the k-d-tree greedy", false, (*sweep).scale},
	{"repairs", "failure/repair robustness sweep", false, (*sweep).repairs},
	{"faults", "unreliable control plane: loss sweep with self-healing", false, (*sweep).faults},
	{"partition", "partition tolerance: degraded islands, admission control, reconciliation (requires -faults)", false, (*sweep).partition},
	{"drift", "kinetic drift: certificate monitoring and repair-policy frontier", false, (*sweep).drift},
	{"recovery", "crash recovery: kill-point chaos, snapshot restore, rejoin in place", false, (*sweep).recovery},
	{"groups", "multi-group trees on a shared substrate: memory amortization sweep", false, (*sweep).groups},
	{"baselines", "compare against baseline heuristics", false, (*sweep).baselines},
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("omt-experiments", flag.ContinueOnError)
	selected := make([]*bool, len(sections))
	for i, sec := range sections {
		selected[i] = fs.Bool(sec.name, false, sec.usage)
	}
	all := fs.Bool("all", false, "run everything")
	paper := fs.Bool("paper", false, "use the paper's sizes (up to 5M) and 200 trials")
	sizesFlag := fs.String("sizes", "", "comma-separated sizes (overrides defaults)")
	trials := fs.Int("trials", 0, "trials per size (default 20, or 200 with -paper)")
	seed := fs.Uint64("seed", 2004, "random seed")
	workers := fs.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
	buildWorkers := fs.Int("build-workers", 0, "workers inside each build (0 = serial; trees are identical regardless)")
	csvPath := fs.String("csv", "", "also write the sweep as CSV here")
	jsonPath := fs.String("json", "", "write all executed experiment rows as JSON here")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot (build-phase spans) here on exit")
	tracePath := fs.String("trace", "", "write the faults sweep's Chrome trace-event JSON timeline here (requires -faults)")
	flightPath := fs.String("flight", "", "record the drift sweep's flight samples and write them here as JSONL (requires -drift)")
	flightInterval := fs.Int("flight-interval", 1, "sample every N maintenance rounds (requires -flight)")
	sloSpec := fs.String("slo", "", "';'-joined SLO rules watched per flight sample (requires -flight)")
	openMetricsPath := fs.String("openmetrics", "", "write the final registry state as OpenMetrics exposition text here on exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	on := map[string]bool{}
	csv := ""
	for i, sec := range sections {
		if *all || *selected[i] {
			on[sec.name] = true
			if sec.disk {
				csv = *csvPath
			}
		}
	}
	// The partition sweep extends the fault sweep's scenario; alone it would
	// skip the context that makes its columns comparable.
	if on["partition"] && !on["faults"] {
		return fmt.Errorf("-partition requires -faults (it extends the unreliable-control-plane sweep)")
	}
	// -flight samples the drift sweep's round clock; without -drift it would
	// silently write an empty ring.
	if *flightPath != "" && !on["drift"] {
		return fmt.Errorf("-flight requires -drift (it samples the drift sweep's maintenance rounds)")
	}
	if len(on) == 0 {
		fs.Usage()
		return fmt.Errorf("nothing selected (try -all)")
	}
	// -trace records the fault sweep's timeline; without -faults it would
	// silently write an empty file.
	if *tracePath != "" && !on["faults"] {
		return fmt.Errorf("-trace requires -faults (it records the fault sweep's event timeline)")
	}

	s := &sweep{out: out, sizes: defaultSizes, trials: 20, seed: *seed, workers: *workers, buildWorkers: *buildWorkers}
	if *paper {
		s.sizes = paperSizes
		s.trials = 200
	}
	if *sizesFlag != "" {
		parsed, err := parseSizes(*sizesFlag)
		if err != nil {
			return err
		}
		s.sizes = parsed
	}
	if *trials > 0 {
		s.trials = *trials
	}
	s.manifest.Seed, s.manifest.Trials = s.seed, s.trials

	outputs := cliutil.Outputs{
		Metrics: *metricsPath, Trace: *tracePath,
		Flight: *flightPath, FlightInterval: *flightInterval, SLO: *sloSpec,
		OpenMetrics: *openMetricsPath, Pprof: *pprofAddr,
		Files: []cliutil.File{
			{Flag: "csv", Path: csv, Write: func(w io.Writer) error { return experiment.WriteCSV(s.manifest.Disk, w) }},
			{Flag: "json", Path: *jsonPath, Write: s.manifest.writeJSON},
		},
	}
	return cliutil.Run(fs, outputs, out, func(env *cliutil.Env) error {
		s.env = env
		for _, sec := range sections {
			if on[sec.name] {
				if err := sec.run(s); err != nil {
					return err
				}
			}
		}
		if env.Reg != nil {
			snap := env.Reg.Snapshot()
			s.manifest.Metrics = &snap
		}
		return nil
	})
}

// manifest is the -json document: every executed section's rows.
type manifest struct {
	Seed      uint64                    `json:"seed"`
	Trials    int                       `json:"trials"`
	Disk      []experiment.Row          `json:"disk,omitempty"`
	Ball      []experiment.Row          `json:"ball,omitempty"`
	Baselines []experiment.BaselineRow  `json:"baselines,omitempty"`
	Scalable  []experiment.ScalableRow  `json:"scalable,omitempty"`
	Churn     []experiment.ChurnRow     `json:"churn,omitempty"`
	Dims      []experiment.DimRow       `json:"dims,omitempty"`
	Repairs   []experiment.RepairRow    `json:"repairs,omitempty"`
	Faults    []experiment.FaultRow     `json:"faults,omitempty"`
	Partition []experiment.PartitionRow `json:"partition,omitempty"`
	Drift     []experiment.DriftRow     `json:"drift,omitempty"`
	Recovery  []experiment.RecoveryRow  `json:"recovery,omitempty"`
	Groups    []experiment.GroupRow     `json:"groups,omitempty"`
	Metrics   *obs.Snapshot             `json:"metrics,omitempty"`
}

// writeJSON writes the manifest as indented JSON.
func (m *manifest) writeJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// sweep is one invocation's settings, shared by its sections, and the
// manifest they fill.
type sweep struct {
	out                   io.Writer
	env                   *cliutil.Env
	sizes                 []int
	trials                int
	seed                  uint64
	workers, buildWorkers int
	manifest              manifest
}

// render prints a table or plot followed by a blank line.
func (s *sweep) render(r interface{ Render(io.Writer) error }) error {
	if err := r.Render(s.out); err != nil {
		return err
	}
	fmt.Fprintln(s.out)
	return nil
}

// runSweep runs a disk or ball sweep on the invocation's workers and
// registry, tagging its progress lines.
func (s *sweep) runSweep(cfg experiment.Config, tag string) ([]experiment.Row, error) {
	cfg.Workers, cfg.BuildWorkers, cfg.Obs = s.workers, s.buildWorkers, s.env.Reg
	cfg.Progress = func(m string) { fmt.Fprintln(os.Stderr, tag, m) }
	return experiment.Run(cfg)
}

// disk runs the 2-D disk sweep on first use and returns its rows.
func (s *sweep) disk() ([]experiment.Row, error) {
	if s.manifest.Disk != nil {
		return s.manifest.Disk, nil
	}
	rows, err := s.runSweep(experiment.DiskConfig(s.sizes, s.trials, s.seed), "[disk]")
	s.manifest.Disk = rows
	return rows, err
}

func (s *sweep) table1() error {
	rows, err := s.disk()
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, "Table I: unit disk, uniform points, source at center")
	fmt.Fprintf(s.out, "(%d trials per size, seed %d)\n\n", s.trials, s.seed)
	return s.render(experiment.Table1(rows))
}

// figure plots the disk sweep.
func (s *sweep) figure(plot func([]experiment.Row) (*stats.Plot, error)) error {
	rows, err := s.disk()
	if err != nil {
		return err
	}
	p, err := plot(rows)
	if err != nil {
		return err
	}
	return s.render(p)
}

func (s *sweep) fig4() error { return s.figure(experiment.Figure4) }

func (s *sweep) fig5() error {
	return s.figure(func(rows []experiment.Row) (*stats.Plot, error) {
		return experiment.Figure5(rows, "Figure 5: max delay, out-degree 2 vs 6 (unit disk)")
	})
}

func (s *sweep) fig6() error { return s.figure(experiment.Figure6) }

func (s *sweep) fig7() error { return s.figure(experiment.Figure7) }

func (s *sweep) fig8() error {
	rows3, err := s.runSweep(experiment.BallConfig(s.sizes, s.trials, s.seed), "[ball]")
	if err != nil {
		return err
	}
	s.manifest.Ball = rows3
	p, err := experiment.Figure5(rows3,
		"Figure 8: max delay in the 3-D unit ball, out-degree 2 vs 10")
	if err != nil {
		return err
	}
	if err := s.render(p); err != nil {
		return err
	}
	fmt.Fprintln(s.out, "3-D sweep data:")
	return s.render(experiment.Table1(rows3))
}

func (s *sweep) churn() error {
	extTrials := trialsForExtensions(s.trials)
	fmt.Fprintf(s.out, "Decentralized protocol vs centralized (degree 6, %d trials):\n\n", extTrials)
	rows, err := experiment.RunChurn(experiment.ChurnConfig{
		Sizes: clampSizes(s.sizes, 5000), Trials: extTrials, Seed: s.seed, MaxOutDegree: 6,
	})
	if err != nil {
		return err
	}
	s.manifest.Churn = rows
	return s.render(experiment.ChurnTable(rows))
}

func (s *sweep) dims() error {
	fmt.Fprintln(s.out, "Delay convergence across dimensions (n = 2000):")
	fmt.Fprintln(s.out)
	rows, err := experiment.RunDimSweep(experiment.DimSweepConfig{
		Dims: []int{2, 3, 4, 5}, N: 2000, Trials: trialsForExtensions(s.trials), Seed: s.seed,
	})
	if err != nil {
		return err
	}
	s.manifest.Dims = rows
	return s.render(experiment.DimSweepTable(rows, 2000))
}

func (s *sweep) scale() error {
	extTrials := trialsForExtensions(s.trials)
	fmt.Fprintf(s.out, "Large-n comparison, near-linear algorithms only (degree 6, %d trials):\n\n", extTrials)
	rows, err := experiment.RunScalableBaselines(experiment.BaselineConfig{
		Sizes: s.sizes, Trials: extTrials, Seed: s.seed, MaxOutDegree: 6, Workers: s.workers,
	})
	if err != nil {
		return err
	}
	s.manifest.Scalable = rows
	return s.render(experiment.ScalableTable(rows))
}

func (s *sweep) repairs() error {
	fmt.Fprintln(s.out, "Failure/repair robustness (n = 2000, degree 6):")
	fmt.Fprintln(s.out)
	rows, err := experiment.RunRepairs(experiment.RepairConfig{
		N: 2000, FailFractions: []float64{0.01, 0.05, 0.10},
		Trials: trialsForExtensions(s.trials), Seed: s.seed, MaxOutDegree: 6,
	})
	if err != nil {
		return err
	}
	s.manifest.Repairs = rows
	return s.render(experiment.RepairTable(rows, 2000))
}

func (s *sweep) faults() error {
	fmt.Fprintln(s.out, "Unreliable control plane (n = 500, degree 6):")
	fmt.Fprintln(s.out)
	rows, err := experiment.RunFaultSweep(experiment.FaultSweepConfig{
		N: 500, LossRates: []float64{0, 0.05, 0.10, 0.20, 0.30},
		Trials: trialsForExtensions(s.trials), Seed: s.seed, MaxOutDegree: 6,
		Trace: s.env.Trace,
	})
	if err != nil {
		return err
	}
	s.manifest.Faults = rows
	return s.render(experiment.FaultTable(rows, 500))
}

func (s *sweep) partition() error {
	fmt.Fprintln(s.out, "Partition tolerance (n = 300, degree 6, 5% loss, split rounds 2-8):")
	fmt.Fprintln(s.out)
	rows, err := experiment.RunPartitionSweep(experiment.PartitionSweepConfig{
		N: 300, Sides: []int{2, 3, 4},
		Trials: trialsForExtensions(s.trials), Seed: s.seed, MaxOutDegree: 6,
		Trace: s.env.Trace,
	})
	if err != nil {
		return err
	}
	s.manifest.Partition = rows
	return s.render(experiment.PartitionTable(rows, 300))
}

func (s *sweep) drift() error {
	fmt.Fprintln(s.out, "Kinetic drift (n = 800, degree 6, jump model, re-estimation every 3 rounds):")
	fmt.Fprintln(s.out)
	rows, err := experiment.RunDriftSweep(experiment.DriftSweepConfig{
		N: 800, Rates: []float64{0.003, 0.01},
		Trials: trialsForExtensions(s.trials), Seed: s.seed, MaxOutDegree: 6,
		Trace: s.env.Trace, Obs: s.env.Reg, Flight: s.env.Flight,
	})
	if err != nil {
		return err
	}
	s.manifest.Drift = rows
	return s.render(experiment.DriftTable(rows, 800))
}

func (s *sweep) recovery() error {
	fmt.Fprintln(s.out, "Crash recovery (n = 200, degree 6, kill-point chaos with snapshot restore):")
	fmt.Fprintln(s.out)
	rows, err := experiment.RunRecoverySweep(experiment.RecoverySweepConfig{
		N: 200, Trials: trialsForExtensions(s.trials), Seed: s.seed, MaxOutDegree: 6,
	})
	if err != nil {
		return err
	}
	s.manifest.Recovery = rows
	return s.render(experiment.RecoveryTable(rows, 200))
}

func (s *sweep) groups() error {
	fmt.Fprintln(s.out, "Multi-group trees on a shared substrate (1000 hosts, degree 6):")
	fmt.Fprintln(s.out)
	rows, err := experiment.RunGroupSweep(experiment.GroupSweepConfig{
		Hosts: 1000, Groups: []int{1, 8, 32}, Overlaps: []float64{0, 0.5},
		MeanSize: 100, Sources: 4, MaxOutDegree: 6,
		Trials: trialsForExtensions(s.trials), Seed: s.seed,
		Progress: func(m string) { fmt.Fprintln(os.Stderr, "[groups]", m) },
	})
	if err != nil {
		return err
	}
	s.manifest.Groups = rows
	return s.render(experiment.GroupTable(rows))
}

func (s *sweep) baselines() error {
	fmt.Fprintf(s.out, "Baseline comparison (degree 6, sizes capped at 5000, %d trials):\n\n", s.trials)
	rows, err := experiment.RunBaselines(experiment.BaselineConfig{
		// The greedy baselines are O(n^2).
		Sizes: clampSizes(s.sizes, 5000), Trials: s.trials, Seed: s.seed, MaxOutDegree: 6, Workers: s.workers,
	})
	if err != nil {
		return err
	}
	s.manifest.Baselines = rows
	return s.render(experiment.BaselineTable(rows, 6))
}

// trialsForExtensions caps the replication of the slower extension
// experiments at 10.
func trialsForExtensions(n int) int {
	if n > 10 {
		n = 10
	}
	return n
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid size %q", p)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

func clampSizes(sizes []int, maxSize int) []int {
	out := make([]int, 0, len(sizes))
	for _, s := range sizes {
		if s <= maxSize {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		out = []int{100, 500, 1000, 2000, 5000}
	}
	return out
}
