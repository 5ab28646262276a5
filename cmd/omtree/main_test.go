package main

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"omtree/internal/grid"
)

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("accepted empty args")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("accepted unknown subcommand")
	}
}

func TestGenBuildStatsPipeline(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "pts.json")
	treeFile := filepath.Join(dir, "tree.json")
	dotFile := filepath.Join(dir, "tree.dot")

	if err := run([]string{"gen", "-n", "200", "-seed", "5", "-o", pts}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-points", pts, "-degree", "6", "-o", treeFile, "-dot", dotFile}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"stats", "-points", pts, "-tree", treeFile}); err != nil {
		t.Fatal(err)
	}
	dot, err := os.ReadFile(dotFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph") {
		t.Error("DOT output malformed")
	}
}

func TestGenVariants(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range [][]string{
		{"gen", "-n", "50", "-dim", "2", "-dist", "clustered", "-o", filepath.Join(dir, "c.json")},
		{"gen", "-n", "50", "-dim", "3", "-o", filepath.Join(dir, "b.json")},
	} {
		if err := run(tc); err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
	}
	// 3-D points build too.
	if err := run([]string{"build", "-points", filepath.Join(dir, "b.json"), "-degree", "2"}); err != nil {
		t.Fatal(err)
	}
	// Unsupported combination.
	if err := run([]string{"gen", "-dim", "3", "-dist", "clustered", "-o", filepath.Join(dir, "x.json")}); err == nil {
		t.Error("accepted 3-D clustered")
	}
	if err := run([]string{"gen", "-n", "-3", "-o", filepath.Join(dir, "x.json")}); err == nil {
		t.Error("accepted negative n")
	}
}

func TestBuildValidation(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"build"}); err == nil {
		t.Error("accepted missing -points")
	}
	if err := run([]string{"build", "-points", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("accepted missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"dim": 2, "points": [[1]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-points", bad}); err == nil {
		t.Error("accepted malformed points")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"dim": 2, "points": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-points", empty}); err == nil {
		t.Error("accepted empty points")
	}
}

func TestBuildForceK(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "pts.json")
	if err := run([]string{"gen", "-n", "500", "-seed", "9", "-o", pts}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-points", pts, "-force-k", "2"}); err != nil {
		t.Fatal(err)
	}
	// 2^k - 2 interior cells outnumber the 500 receivers: each depth must
	// fail with the occupancy error, before anything is sized by 2^k.
	for _, k := range []int{20, 40, grid.MaxK + 1} {
		err := run([]string{"build", "-points", pts, "-force-k", strconv.Itoa(k)})
		if err == nil || !strings.Contains(err.Error(), "leaves an interior grid cell empty") {
			t.Errorf("-force-k %d: err = %v", k, err)
		}
	}
}

func TestStatsValidation(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "pts.json")
	treeFile := filepath.Join(dir, "tree.json")
	if err := run([]string{"stats"}); err == nil {
		t.Error("accepted missing flags")
	}
	if err := run([]string{"gen", "-n", "20", "-o", pts}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-points", pts, "-o", treeFile}); err != nil {
		t.Fatal(err)
	}
	// Mismatched sizes rejected.
	pts2 := filepath.Join(dir, "pts2.json")
	if err := run([]string{"gen", "-n", "5", "-o", pts2}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"stats", "-points", pts2, "-tree", treeFile}); err == nil {
		t.Error("accepted mismatched tree/points")
	}
}

func TestHighDimensionalBuild(t *testing.T) {
	// Hand-written 4-D points exercise the BuildND path.
	dir := t.TempDir()
	pts := filepath.Join(dir, "p4.json")
	content := `{"dim": 4, "points": [[0,0,0,0],[0.5,0,0,0],[0,0.5,0,0],[0,0,0.5,0],[0,0,0,0.5],[0.2,0.2,0.2,0.2]]}`
	if err := os.WriteFile(pts, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-points", pts, "-degree", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestPointsFileValidate(t *testing.T) {
	cases := []pointsFile{
		{Dim: 1, Points: [][]float64{{1}}},
		{Dim: 2, Points: nil},
		{Dim: 2, Points: [][]float64{{1, 2}, {3}}},
	}
	for i, pf := range cases {
		if err := pf.validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good := pointsFile{Dim: 2, Points: [][]float64{{0, 0}, {1, 1}}}
	if err := good.validate(); err != nil {
		t.Error(err)
	}
}

func TestRenderSubcommand(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "pts.json")
	treeFile := filepath.Join(dir, "tree.json")
	svgFile := filepath.Join(dir, "tree.svg")

	if err := run([]string{"gen", "-n", "80", "-seed", "3", "-o", pts}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-points", pts, "-o", treeFile}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"render", "-points", pts, "-tree", treeFile, "-o", svgFile, "-color-delay", "-title", "demo"}); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(svgFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "<svg") || !strings.Contains(string(svg), "demo") {
		t.Error("SVG output malformed")
	}
	// Missing flags rejected.
	if err := run([]string{"render", "-points", pts}); err == nil {
		t.Error("accepted missing flags")
	}
}

func TestCompareSubcommand(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "pts.json")
	if err := run([]string{"gen", "-n", "100", "-seed", "6", "-o", pts}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compare", "-points", pts, "-degree", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"compare"}); err == nil {
		t.Error("accepted missing -points")
	}
}

// TestBuildRejectsBeforeTouchingOutputs: a build whose points file cannot
// be read leaves a file already at an output path with its bytes.
func TestBuildRejectsBeforeTouchingOutputs(t *testing.T) {
	dir := t.TempDir()
	om := filepath.Join(dir, "om.txt")
	want := []byte("earlier run\n")
	if err := os.WriteFile(om, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-openmetrics", om, "-points", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("accepted a missing points file")
	}
	if got, err := os.ReadFile(om); err != nil || string(got) != string(want) {
		t.Errorf("-openmetrics file now holds %q (%v)", got, err)
	}
}

// TestBuildUnwritableTreeFailsFirst: an -o path that cannot be created
// fails before the build runs, so nothing is printed and the -openmetrics
// file beside it is never written; with writable paths -o and -dot hold
// the tree, and -o - prints it after the statistics.
func TestBuildUnwritableTreeFailsFirst(t *testing.T) {
	dir := t.TempDir()
	pts := filepath.Join(dir, "pts.json")
	if err := run([]string{"gen", "-n", "200", "-seed", "5", "-o", pts}); err != nil {
		t.Fatal(err)
	}
	om := filepath.Join(dir, "om.txt")
	stdout, err := captureStdout(t, func() error {
		return run([]string{"build", "-points", pts, "-openmetrics", om, "-o", filepath.Join(dir, "missing", "tree.json")})
	})
	if err == nil || !strings.Contains(err.Error(), "-o:") {
		t.Fatalf("err = %v, want an error naming -o", err)
	}
	if stdout != "" {
		t.Errorf("the refused build printed %q", stdout)
	}
	if _, err := os.Stat(om); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the refused build left %s behind (%v)", filepath.Base(om), err)
	}

	treeFile, dotFile := filepath.Join(dir, "tree.json"), filepath.Join(dir, "tree.dot")
	if _, err := captureStdout(t, func() error {
		return run([]string{"build", "-points", pts, "-o", treeFile, "-dot", dotFile})
	}); err != nil {
		t.Fatal(err)
	}
	tree, err := os.ReadFile(treeFile)
	if err != nil {
		t.Fatal(err)
	}
	if dot, err := os.ReadFile(dotFile); err != nil || !strings.HasPrefix(string(dot), "digraph") {
		t.Errorf("DOT file %q (%v)", dot, err)
	}
	stdout, err = captureStdout(t, func() error { return run([]string{"build", "-points", pts, "-o", "-"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout, "nodes:") || !strings.HasSuffix(stdout, "\n"+string(tree)+"\n") {
		t.Errorf("-o - printed %q, want the statistics then the tree file's bytes", stdout)
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what f printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	ferr := f()
	os.Stdout = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}
