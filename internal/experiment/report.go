package experiment

import (
	"fmt"
	"io"

	"omtree/internal/stats"
)

// Table1 renders rows in the paper's Table I layout: per degree, the Core,
// Delay, Dev, Bound and CPU Sec columns.
func Table1(rows []Row) *stats.Table {
	header := []string{"Nodes", "Rings"}
	if len(rows) > 0 {
		for _, agg := range rows[0].ByDegree {
			d := fmt.Sprintf("d%d", agg.Degree)
			header = append(header,
				"Core("+d+")", "Delay("+d+")", "Dev("+d+")", "Bound("+d+")", "CPUSec("+d+")")
		}
	}
	t := stats.NewTable(header...)
	for _, row := range rows {
		cells := []string{
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.2f", row.Rings),
		}
		for _, agg := range row.ByDegree {
			cells = append(cells,
				fmt.Sprintf("%.2f", agg.Core),
				fmt.Sprintf("%.3f", agg.Delay),
				fmt.Sprintf("%.2f", agg.DelayStdDev),
				fmt.Sprintf("%.2f", agg.Bound),
				fmt.Sprintf("%.4g", agg.CPUSec),
			)
		}
		t.AddRow(cells...)
	}
	return t
}

// aggFor returns the aggregate at the requested degree, or false.
func aggFor(row Row, degree int) (Aggregate, bool) {
	for _, a := range row.ByDegree {
		if a.Degree == degree {
			return a, true
		}
	}
	return Aggregate{}, false
}

// series extracts one metric across rows for one degree.
func series(rows []Row, degree int, name string, metric func(Aggregate) float64) (stats.Series, error) {
	s := stats.Series{Name: name}
	for _, row := range rows {
		a, ok := aggFor(row, degree)
		if !ok {
			return s, fmt.Errorf("experiment: degree %d missing from results", degree)
		}
		s.X = append(s.X, float64(row.Nodes))
		s.Y = append(s.Y, metric(a))
	}
	return s, nil
}

// Figure4 plots maximum delay vs the bound and the core delay for the
// primary (first) degree — the paper's Figure 4.
func Figure4(rows []Row) (*stats.Plot, error) {
	if len(rows) == 0 || len(rows[0].ByDegree) == 0 {
		return nil, fmt.Errorf("experiment: no data")
	}
	deg := rows[0].ByDegree[0].Degree
	p := &stats.Plot{
		Title:  fmt.Sprintf("Figure 4: average maximum delay vs bounds (out-degree %d)", deg),
		XLabel: "number of nodes",
		LogX:   true,
	}
	for _, def := range []struct {
		name   string
		metric func(Aggregate) float64
	}{
		{"max delay", func(a Aggregate) float64 { return a.Delay }},
		{"bound (7)", func(a Aggregate) float64 { return a.Bound }},
		{"core delay", func(a Aggregate) float64 { return a.Core }},
	} {
		s, err := series(rows, deg, def.name, def.metric)
		if err != nil {
			return nil, err
		}
		if err := p.Add(s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Figure5 compares maximum delay across the two degree variants — the
// paper's Figure 5 (and Figure 8 when rows come from the 3-D sweep).
func Figure5(rows []Row, title string) (*stats.Plot, error) {
	if len(rows) == 0 || len(rows[0].ByDegree) < 2 {
		return nil, fmt.Errorf("experiment: need two degree variants")
	}
	p := &stats.Plot{Title: title, XLabel: "number of nodes", LogX: true}
	for _, agg := range rows[0].ByDegree {
		s, err := series(rows, agg.Degree,
			fmt.Sprintf("out-degree %d", agg.Degree),
			func(a Aggregate) float64 { return a.Delay })
		if err != nil {
			return nil, err
		}
		if err := p.Add(s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Figure6 plots the average ring count vs n — the paper's Figure 6.
func Figure6(rows []Row) (*stats.Plot, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiment: no data")
	}
	p := &stats.Plot{
		Title:  "Figure 6: average number of rings in polar grid",
		XLabel: "number of nodes",
		LogX:   true,
	}
	s := stats.Series{Name: "rings k"}
	for _, row := range rows {
		s.X = append(s.X, float64(row.Nodes))
		s.Y = append(s.Y, row.Rings)
	}
	if err := p.Add(s); err != nil {
		return nil, err
	}
	return p, nil
}

// Figure7 plots build time vs n — the paper's Figure 7.
func Figure7(rows []Row) (*stats.Plot, error) {
	if len(rows) == 0 || len(rows[0].ByDegree) == 0 {
		return nil, fmt.Errorf("experiment: no data")
	}
	p := &stats.Plot{
		Title:  "Figure 7: algorithm running time",
		XLabel: "number of nodes",
		LogX:   true,
	}
	for _, agg := range rows[0].ByDegree {
		s, err := series(rows, agg.Degree,
			fmt.Sprintf("out-degree %d (sec)", agg.Degree),
			func(a Aggregate) float64 { return a.CPUSec })
		if err != nil {
			return nil, err
		}
		if err := p.Add(s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// WriteCSV emits the full sweep as CSV.
func WriteCSV(rows []Row, w io.Writer) error {
	return Table1(rows).RenderCSV(w)
}
