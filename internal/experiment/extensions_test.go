package experiment

import (
	"strings"
	"testing"
)

func TestRunChurn(t *testing.T) {
	rows, err := RunChurn(ChurnConfig{
		Sizes: []int{300, 1000}, Trials: 2, Seed: 3, MaxOutDegree: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Quality ladder: rebuild restores the centralized optimum exactly.
		if r.Rebuilt > r.Central+1e-9 || r.Rebuilt < r.Central-1e-9 {
			t.Errorf("n=%d: rebuilt %v != centralized %v", r.Nodes, r.Rebuilt, r.Central)
		}
		if r.JoinMsgs <= 1 || r.JoinMsgs > 50 {
			t.Errorf("n=%d: join msgs %v implausible", r.Nodes, r.JoinMsgs)
		}
	}
	var b strings.Builder
	if err := ChurnTable(rows).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Rebuilt") {
		t.Error("churn table header missing")
	}
}

func TestRunChurnValidation(t *testing.T) {
	if _, err := RunChurn(ChurnConfig{}); err == nil {
		t.Error("accepted empty config")
	}
	if _, err := RunChurn(ChurnConfig{Sizes: []int{10}, Trials: 1, MaxOutDegree: 2}); err == nil {
		t.Error("accepted degree 2")
	}
}

func TestRunDimSweep(t *testing.T) {
	rows, err := RunDimSweep(DimSweepConfig{
		Dims: []int{2, 3, 4}, N: 800, Trials: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's observation generalizes: at fixed n, higher dimensions
	// converge slower (larger delay ratio).
	for i := 1; i < len(rows); i++ {
		if rows[i].NaturalRatio <= rows[i-1].NaturalRatio {
			t.Errorf("dim %d ratio %v not above dim %d ratio %v",
				rows[i].Dim, rows[i].NaturalRatio, rows[i-1].Dim, rows[i-1].NaturalRatio)
		}
	}
	for _, r := range rows {
		if r.BinRatio < r.NaturalRatio-1e-9 {
			t.Errorf("dim %d: binary beat natural", r.Dim)
		}
		if r.NaturalDegree != 1<<uint(r.Dim)+2 {
			t.Errorf("dim %d: natural degree %d", r.Dim, r.NaturalDegree)
		}
	}
	var b strings.Builder
	if err := DimSweepTable(rows, 800).Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "NaturalDeg") {
		t.Error("dim table header missing")
	}
}

func TestRunDimSweepValidation(t *testing.T) {
	if _, err := RunDimSweep(DimSweepConfig{}); err == nil {
		t.Error("accepted empty config")
	}
	if _, err := RunDimSweep(DimSweepConfig{Dims: []int{1}, N: 10, Trials: 1}); err == nil {
		t.Error("accepted dimension 1")
	}
}
