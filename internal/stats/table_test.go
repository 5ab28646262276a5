package stats

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Nodes", "Delay")
	tbl.AddRow("100", "1.852")
	tbl.AddRow("5000000", "1.005")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Nodes") || !strings.Contains(lines[0], "Delay") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator missing: %q", lines[1])
	}
	// Right alignment: all data lines have equal width.
	if len(lines[2]) != len(lines[3]) {
		t.Errorf("rows not aligned: %q vs %q", lines[2], lines[3])
	}
}

func TestTableShortRow(t *testing.T) {
	tbl := NewTable("a", "b", "c")
	tbl.AddRow("1")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("n", "delay")
	tbl.AddRow("100", "1.852")
	tbl.AddRow("500")
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "n,delay\n100,1.852\n500,\n"
	if b.String() != want {
		t.Errorf("CSV = %q, want %q", b.String(), want)
	}
}

func TestTableRenderCSVRejectsComma(t *testing.T) {
	tbl := NewTable("a")
	tbl.AddRow("x,y")
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err == nil {
		t.Error("expected error for comma in cell")
	}
}

func TestPlotRender(t *testing.T) {
	p := Plot{Title: "delay vs n", XLabel: "nodes", LogX: true, Width: 40, Height: 10}
	if err := p.Add(Series{Name: "deg6", X: []float64{100, 1000, 10000}, Y: []float64{1.8, 1.3, 1.1}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(Series{Name: "deg2", X: []float64{100, 1000, 10000}, Y: []float64{2.6, 1.6, 1.2}}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := p.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"delay vs n", "deg6", "deg2", "*", "o", "log scale"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot output missing %q:\n%s", want, out)
		}
	}
}

func TestPlotErrors(t *testing.T) {
	var p Plot
	if err := p.Render(&strings.Builder{}); err == nil {
		t.Error("expected error for empty plot")
	}
	if err := p.Add(Series{Name: "bad", X: []float64{1}, Y: nil}); err == nil {
		t.Error("expected error for mismatched series")
	}
}

func TestPlotConstantSeries(t *testing.T) {
	var p Plot
	if err := p.Add(Series{Name: "flat", X: []float64{1, 2}, Y: []float64{3, 3}}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := p.Render(&b); err != nil {
		t.Fatalf("constant series should render: %v", err)
	}
}
