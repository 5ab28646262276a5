// Command omtree generates point sets and builds minimum-delay
// degree-constrained multicast trees over them.
//
// Subcommands:
//
//	omtree gen   -n 1000 -dim 2 -seed 1 -dist uniform -o points.json
//	omtree build -points points.json -degree 6 -o tree.json [-workers N] [-verify] [-dot tree.dot]
//	omtree stats -points points.json -tree tree.json
//	omtree render -points points.json -tree tree.json -o tree.svg
//	omtree compare -points points.json -degree 6
//
// build additionally takes the shared observability flags: -flight FILE
// attaches a flight recorder (the completed build lands one sample, written
// to FILE as JSONL, and a deterministic health report follows the build
// stats on stdout), -slo RULES watches the sample against declarative
// health rules, and -openmetrics FILE writes the build metrics as
// Prometheus/OpenMetrics exposition text. The points file is read and every
// flag checked first; output files, -o and -dot included, are then created
// up front, so a rejected command line touches no file and an unwritable
// path fails before the build starts.
//
// Points files are JSON: {"dim": D, "points": [[x, y, ...], ...]} with
// points[0] the multicast source. Tree files use the tree's JSON codec.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"omtree"
	"omtree/internal/cliutil"
	"omtree/internal/invariant"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "omtree:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: omtree <gen|build|stats|render|compare> [flags]")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "build":
		return cmdBuild(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "render":
		return cmdRender(args[1:])
	case "compare":
		return cmdCompare(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, build, stats, render or compare)", args[0])
	}
}

// pointsFile is the JSON schema of a point set; points[0] is the source.
type pointsFile struct {
	Dim    int         `json:"dim"`
	Points [][]float64 `json:"points"`
}

func (p *pointsFile) validate() error {
	if p.Dim < 2 {
		return fmt.Errorf("dim %d < 2", p.Dim)
	}
	if len(p.Points) == 0 {
		return fmt.Errorf("no points (points[0] must be the source)")
	}
	for i, pt := range p.Points {
		if len(pt) != p.Dim {
			return fmt.Errorf("point %d has %d coordinates, want %d", i, len(pt), p.Dim)
		}
	}
	return nil
}

func loadPoints(path string) (*pointsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading points: %w", err)
	}
	return decodePoints(data)
}

// decodePoints parses and validates the bytes of a points file.
func decodePoints(data []byte) (*pointsFile, error) {
	var pf pointsFile
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("decoding points: %w", err)
	}
	if err := pf.validate(); err != nil {
		return nil, fmt.Errorf("invalid points file: %w", err)
	}
	return &pf, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	n := fs.Int("n", 1000, "number of receivers")
	dim := fs.Int("dim", 2, "dimension (2 or 3)")
	seed := fs.Uint64("seed", 1, "random seed")
	dist := fs.String("dist", "uniform", "distribution: uniform or clustered (2-D only)")
	out := fs.String("o", "-", "output file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 0 {
		return fmt.Errorf("n must be non-negative")
	}
	r := omtree.NewRand(*seed)
	pf := pointsFile{Dim: *dim}
	switch {
	case *dim == 2 && *dist == "uniform":
		pf.Points = append(pf.Points, []float64{0, 0})
		for _, p := range r.UniformDiskN(*n, 1) {
			pf.Points = append(pf.Points, []float64{p.X, p.Y})
		}
	case *dim == 2 && *dist == "clustered":
		pf.Points = append(pf.Points, []float64{0, 0})
		// Mixed density with a 20% uniform floor, per the paper's
		// epsilon-bounded extension.
		clusters := []omtree.Cluster{
			{Center: omtree.Point2{X: 0.5, Y: 0.3}, Sigma: 0.08, Weight: 1},
			{Center: omtree.Point2{X: -0.4, Y: 0.5}, Sigma: 0.08, Weight: 1},
			{Center: omtree.Point2{X: 0.1, Y: -0.6}, Sigma: 0.08, Weight: 1},
		}
		for _, p := range r.MixedDensityDiskN(*n, 1, 0.2, clusters) {
			pf.Points = append(pf.Points, []float64{p.X, p.Y})
		}
	case *dim == 3 && *dist == "uniform":
		pf.Points = append(pf.Points, []float64{0, 0, 0})
		for _, p := range r.UniformBall3N(*n, 1) {
			pf.Points = append(pf.Points, []float64{p.X, p.Y, p.Z})
		}
	default:
		return fmt.Errorf("unsupported dim/dist combination %d/%s", *dim, *dist)
	}
	return writeJSON(*out, pf)
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	pointsPath := fs.String("points", "", "points JSON file (required)")
	degree := fs.Int("degree", 0, "max out-degree (0 = natural for the dimension)")
	forceK := fs.Int("force-k", 0, "pin the grid ring count (0 = automatic)")
	workers := fs.Int("workers", 0, "build workers (0 = automatic, 1 = serial; the tree is identical either way)")
	verify := fs.Bool("verify", false, "re-check tree invariants (spanning, degree bound, radius) after the build")
	out := fs.String("o", "", "write tree JSON here")
	dotOut := fs.String("dot", "", "write Graphviz DOT here")
	flightPath := fs.String("flight", "", "record a flight sample of the build metrics and write it here as JSONL")
	sloSpec := fs.String("slo", "", "';'-joined SLO rules watched against the build sample (requires -flight)")
	openMetricsPath := fs.String("openmetrics", "", "write the build metrics as OpenMetrics exposition text here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pointsPath == "" {
		return fmt.Errorf("-points is required")
	}
	pf, err := loadPoints(*pointsPath)
	if err != nil {
		return err
	}

	var opts []omtree.Option
	if *degree > 0 {
		opts = append(opts, omtree.WithMaxOutDegree(*degree))
	}
	if *forceK > 0 {
		opts = append(opts, omtree.WithForceK(*forceK))
	}
	if *workers != 0 {
		opts = append(opts, omtree.WithParallelism(*workers))
	}
	// -o - writes the tree to stdout after the run rather than to a file.
	treePath := *out
	if treePath == "-" {
		treePath = ""
	}
	var res *omtree.Result
	outputs := cliutil.Outputs{
		Flight: *flightPath, SLO: *sloSpec, OpenMetrics: *openMetricsPath,
		Files: []cliutil.File{
			{Flag: "o", Path: treePath, Write: func(w io.Writer) error { return encodeJSON(w, res.Tree) }},
			{Flag: "dot", Path: *dotOut, Write: func(w io.Writer) error { return res.Tree.WriteDOT(w, nil) }},
		},
	}
	err = cliutil.Run(fs, outputs, os.Stdout, func(env *cliutil.Env) error {
		if env.Reg != nil {
			opts = append(opts, omtree.WithObserver(env.Reg))
		}
		if env.Flight != nil {
			opts = append(opts, omtree.WithFlight(env.Flight))
		}
		var err error
		res, err = buildAndReport(pf, opts, *verify)
		return err
	})
	if err != nil || *out != "-" {
		return err
	}
	return writeJSON("-", res.Tree)
}

// encodeJSON writes v as compact JSON with no trailing newline, the bytes
// writeJSON puts in a file.
func encodeJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// buildAndReport builds the tree, prints its statistics and, with verify,
// re-checks its invariants.
func buildAndReport(pf *pointsFile, opts []omtree.Option, verify bool) (*omtree.Result, error) {
	start := time.Now()
	res, err := buildAny(pf, opts)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	fmt.Printf("nodes:      %d (1 source + %d receivers)\n", res.Tree.N(), res.Tree.N()-1)
	fmt.Printf("variant:    %v (max out-degree %d)\n", res.Variant, res.MaxOutDegree)
	fmt.Printf("rings k:    %d\n", res.K)
	fmt.Printf("radius:     %.6f (scale %.6f)\n", res.Radius, res.Scale)
	fmt.Printf("core delay: %.6f\n", res.CoreDelay)
	fmt.Printf("bound (7):  %.6f\n", res.Bound)
	fmt.Printf("build time: %v\n", elapsed)

	if verify {
		dist := func(i, j int) float64 {
			return omtree.Vec(pf.Points[i]).Dist(omtree.Vec(pf.Points[j]))
		}
		violations := invariant.Check(res.Tree, len(pf.Points), 0, res.MaxOutDegree, dist, res.Radius)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "omtree: invariant violated:", v)
			}
			return nil, fmt.Errorf("%d invariant violations", len(violations))
		}
		fmt.Println("verify:     ok (spanning, degree bound, radius)")
	}
	return res, nil
}

func buildAny(pf *pointsFile, opts []omtree.Option) (*omtree.Result, error) {
	switch pf.Dim {
	case 2:
		src := omtree.Point2{X: pf.Points[0][0], Y: pf.Points[0][1]}
		recv := make([]omtree.Point2, 0, len(pf.Points)-1)
		for _, p := range pf.Points[1:] {
			recv = append(recv, omtree.Point2{X: p[0], Y: p[1]})
		}
		return omtree.Build(src, recv, opts...)
	case 3:
		src := omtree.Point3{X: pf.Points[0][0], Y: pf.Points[0][1], Z: pf.Points[0][2]}
		recv := make([]omtree.Point3, 0, len(pf.Points)-1)
		for _, p := range pf.Points[1:] {
			recv = append(recv, omtree.Point3{X: p[0], Y: p[1], Z: p[2]})
		}
		return omtree.Build3D(src, recv, opts...)
	default:
		src := omtree.Vec(pf.Points[0])
		recv := make([]omtree.Vec, 0, len(pf.Points)-1)
		for _, p := range pf.Points[1:] {
			recv = append(recv, omtree.Vec(p))
		}
		return omtree.BuildND(src, recv, opts...)
	}
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	pointsPath := fs.String("points", "", "points JSON file (required)")
	treePath := fs.String("tree", "", "tree JSON file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pointsPath == "" || *treePath == "" {
		return fmt.Errorf("-points and -tree are required")
	}
	pf, err := loadPoints(*pointsPath)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*treePath)
	if err != nil {
		return fmt.Errorf("reading tree: %w", err)
	}
	var t omtree.Tree
	if err := json.Unmarshal(data, &t); err != nil {
		return fmt.Errorf("decoding tree: %w", err)
	}
	if t.N() != len(pf.Points) {
		return fmt.Errorf("tree has %d nodes but points file has %d", t.N(), len(pf.Points))
	}
	dist := func(i, j int) float64 {
		return omtree.Vec(pf.Points[i]).Dist(omtree.Vec(pf.Points[j]))
	}
	delays := t.Delays(dist)
	var radius float64
	for _, d := range delays {
		if d > radius {
			radius = d
		}
	}
	hist := map[int]int{}
	for i := 0; i < t.N(); i++ {
		hist[t.OutDegree(i)]++
	}
	var avg float64
	if t.N() > 1 {
		var sum float64
		for _, d := range delays {
			sum += d
		}
		avg = sum / float64(t.N()-1)
	}
	load := t.ForwardingLoad()
	maxLoad := 0
	for _, l := range load {
		if l > maxLoad {
			maxLoad = l
		}
	}
	fmt.Printf("nodes:        %d (root %d)\n", t.N(), t.Root())
	fmt.Printf("radius:       %.6f\n", radius)
	fmt.Printf("avg delay:    %.6f\n", avg)
	fmt.Printf("max fwd load: %d descendants\n", maxLoad)
	fmt.Printf("height:       %d hops\n", t.Height())
	fmt.Printf("max degree:   %d\n", t.MaxOutDegree())
	fmt.Printf("diameter:     %.6f\n", t.WeightedDiameter(dist))
	fmt.Printf("degree histogram:\n")
	for d := 0; d <= t.MaxOutDegree(); d++ {
		if c := hist[d]; c > 0 {
			fmt.Printf("  %2d children: %d nodes\n", d, c)
		}
	}
	return nil
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	pointsPath := fs.String("points", "", "points JSON file (required, dim 2)")
	treePath := fs.String("tree", "", "tree JSON file (required)")
	out := fs.String("o", "", "output SVG path (required)")
	size := fs.Int("size", 800, "canvas size in pixels")
	colorByDelay := fs.Bool("color-delay", false, "shade edges by child delay")
	title := fs.String("title", "", "caption")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pointsPath == "" || *treePath == "" || *out == "" {
		return fmt.Errorf("-points, -tree and -o are required")
	}
	pf, err := loadPoints(*pointsPath)
	if err != nil {
		return err
	}
	if pf.Dim != 2 {
		return fmt.Errorf("render supports dim 2, got %d", pf.Dim)
	}
	data, err := os.ReadFile(*treePath)
	if err != nil {
		return fmt.Errorf("reading tree: %w", err)
	}
	var t omtree.Tree
	if err := json.Unmarshal(data, &t); err != nil {
		return fmt.Errorf("decoding tree: %w", err)
	}
	if t.N() != len(pf.Points) {
		return fmt.Errorf("tree has %d nodes but points file has %d", t.N(), len(pf.Points))
	}
	pts := make([]omtree.Point2, len(pf.Points))
	for i, p := range pf.Points {
		pts[i] = omtree.Point2{X: p[0], Y: p[1]}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	return omtree.RenderSVG(f, &t, pts, omtree.VizOptions{
		SizePx: *size, ColorByDelay: *colorByDelay, Title: *title,
	})
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	pointsPath := fs.String("points", "", "points JSON file (required, dim 2)")
	degree := fs.Int("degree", 6, "max out-degree for the constrained algorithms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pointsPath == "" {
		return fmt.Errorf("-points is required")
	}
	pf, err := loadPoints(*pointsPath)
	if err != nil {
		return err
	}
	if pf.Dim != 2 {
		return fmt.Errorf("compare supports dim 2, got %d", pf.Dim)
	}
	pts := make([]omtree.Point2, len(pf.Points))
	for i, p := range pf.Points {
		pts[i] = omtree.Point2{X: p[0], Y: p[1]}
	}
	recv := pts[1:]
	dist := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
	n := len(pts)

	type row struct {
		name   string
		radius float64
		t      time.Duration
	}
	var rows []row
	timeIt := func(name string, build func() (*omtree.Tree, error)) error {
		start := time.Now()
		tr, err := build()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, row{name: name, radius: tr.Radius(dist), t: time.Since(start)})
		return nil
	}

	if err := timeIt("star (lower bound)", func() (*omtree.Tree, error) {
		return omtree.Star(n, 0)
	}); err != nil {
		return err
	}
	if err := timeIt("polar-grid", func() (*omtree.Tree, error) {
		res, err := omtree.Build(pts[0], recv, omtree.WithMaxOutDegree(*degree))
		if err != nil {
			return nil, err
		}
		return res.Tree, nil
	}); err != nil {
		return err
	}
	if err := timeIt("bisection", func() (*omtree.Tree, error) {
		tr, _, err := omtree.BuildBisection(pts, 0, *degree)
		return tr, err
	}); err != nil {
		return err
	}
	if err := timeIt("greedy-knn", func() (*omtree.Tree, error) {
		return omtree.GreedyKNN(pts, *degree, 0)
	}); err != nil {
		return err
	}
	if n <= 5001 { // the O(n^2) heuristics stay usable
		if err := timeIt("greedy-exact", func() (*omtree.Tree, error) {
			return omtree.GreedyClosest(n, 0, dist, *degree)
		}); err != nil {
			return err
		}
		if err := timeIt("bandwidth-latency", func() (*omtree.Tree, error) {
			return omtree.BandwidthLatency(n, 0, dist, *degree, nil)
		}); err != nil {
			return err
		}
	}
	if err := timeIt("balanced-kary", func() (*omtree.Tree, error) {
		return omtree.BalancedKary(n, 0, dist, *degree)
	}); err != nil {
		return err
	}

	fmt.Printf("%d nodes, out-degree cap %d:\n", n, *degree)
	for _, r := range rows {
		fmt.Printf("  %-20s radius %.4f   (%v)\n", r.name, r.radius, r.t.Round(time.Microsecond))
	}
	return nil
}
