package experiment

import (
	"fmt"

	"omtree/internal/core"
	"omtree/internal/geom"
	"omtree/internal/protocol"
	"omtree/internal/rng"
	"omtree/internal/stats"
)

// ChurnConfig parameterizes the decentralized-protocol experiment.
type ChurnConfig struct {
	Sizes        []int
	Trials       int
	Seed         uint64
	MaxOutDegree int // >= 3
}

// ChurnRow reports the dynamic-overlay quality ladder at one size: raw
// after joins, after a coordinated rebuild, against the centralized build;
// plus the average per-join control cost.
type ChurnRow struct {
	Nodes                 int
	Raw, Rebuilt, Central float64
	JoinMsgs              float64
}

// RunChurn measures the decentralized protocol against the centralized
// algorithm.
func RunChurn(cfg ChurnConfig) ([]ChurnRow, error) {
	if len(cfg.Sizes) == 0 || cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: empty churn config")
	}
	if cfg.MaxOutDegree < 3 {
		return nil, fmt.Errorf("experiment: churn degree %d < 3", cfg.MaxOutDegree)
	}
	rows := make([]ChurnRow, 0, len(cfg.Sizes))
	for sizeIdx, n := range cfg.Sizes {
		var raw, rebuilt, central, joinMsgs stats.Accumulator
		for trial := 0; trial < cfg.Trials; trial++ {
			r := rng.New(trialSeed(cfg.Seed^0xc412, sizeIdx, trial))
			pts := r.UniformDiskN(n, 1)

			o, err := protocol.New(protocol.Config{
				Source: geom.Point2{}, Scale: 1,
				K: protocol.SuggestK(n), MaxOutDegree: cfg.MaxOutDegree,
			})
			if err != nil {
				return nil, err
			}
			var msgs int
			for _, p := range pts {
				_, st, err := o.Join(p)
				if err != nil {
					return nil, err
				}
				msgs += st.Messages
			}
			joinMsgs.Add(float64(msgs) / float64(n))

			v, err := o.Radius()
			if err != nil {
				return nil, err
			}
			raw.Add(v)
			if _, err := o.Rebuild(); err != nil {
				return nil, err
			}
			if v, err = o.Radius(); err != nil {
				return nil, err
			}
			rebuilt.Add(v)

			c, err := core.Build2(geom.Point2{}, pts, core.WithMaxOutDegree(cfg.MaxOutDegree))
			if err != nil {
				return nil, err
			}
			central.Add(c.Radius)
		}
		rows = append(rows, ChurnRow{
			Nodes: n, Raw: raw.Mean(), Rebuilt: rebuilt.Mean(), Central: central.Mean(),
			JoinMsgs: joinMsgs.Mean(),
		})
	}
	return rows, nil
}

// ChurnTable renders the churn rows.
func ChurnTable(rows []ChurnRow) *stats.Table {
	t := stats.NewTable("Nodes", "RawJoin", "Rebuilt", "Centralized", "Msgs/Join")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.3f", r.Raw),
			fmt.Sprintf("%.3f", r.Rebuilt),
			fmt.Sprintf("%.3f", r.Central),
			fmt.Sprintf("%.1f", r.JoinMsgs),
		)
	}
	return t
}

// DimSweepConfig parameterizes the dimension sweep (an extension of the
// paper's 2-D vs 3-D comparison to general d).
type DimSweepConfig struct {
	Dims   []int // each >= 2
	N      int
	Trials int
	Seed   uint64
}

// DimRow reports one dimension's delay ratios (radius / farthest receiver)
// for the natural and binary variants.
type DimRow struct {
	Dim                    int
	NaturalDegree          int
	NaturalRatio, BinRatio float64
	Rings                  float64
}

// RunDimSweep measures delay convergence across dimensions at fixed n: the
// paper's Figure 8 observation ("the largest delay in 3 dimensions is
// higher ... explained by the increase in the average distance between
// uniformly distributed points") generalized.
func RunDimSweep(cfg DimSweepConfig) ([]DimRow, error) {
	if len(cfg.Dims) == 0 || cfg.N < 2 || cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: empty dimension-sweep config")
	}
	rows := make([]DimRow, 0, len(cfg.Dims))
	for di, d := range cfg.Dims {
		if d < 2 {
			return nil, fmt.Errorf("experiment: dimension %d < 2", d)
		}
		var nat, bin, rings stats.Accumulator
		for trial := 0; trial < cfg.Trials; trial++ {
			r := rng.New(trialSeed(cfg.Seed^0xd175, di, trial))
			recv := r.UniformBallDN(cfg.N, d, 1)
			src := make(geom.Vec, d)
			n, err := core.BuildD(src, recv)
			if err != nil {
				return nil, err
			}
			b, err := core.BuildD(src, recv, core.WithMaxOutDegree(2))
			if err != nil {
				return nil, err
			}
			nat.Add(n.Radius / n.Scale)
			bin.Add(b.Radius / b.Scale)
			rings.Add(float64(n.K))
		}
		rows = append(rows, DimRow{
			Dim:           d,
			NaturalDegree: 1<<uint(d) + 2,
			NaturalRatio:  nat.Mean(),
			BinRatio:      bin.Mean(),
			Rings:         rings.Mean(),
		})
	}
	return rows, nil
}

// DimSweepTable renders the dimension sweep.
func DimSweepTable(rows []DimRow, n int) *stats.Table {
	t := stats.NewTable("Dim", "NaturalDeg", "Rings",
		fmt.Sprintf("Ratio@n=%d(nat)", n), "Ratio(deg2)")
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Dim),
			fmt.Sprintf("%d", r.NaturalDegree),
			fmt.Sprintf("%.2f", r.Rings),
			fmt.Sprintf("%.3f", r.NaturalRatio),
			fmt.Sprintf("%.3f", r.BinRatio),
		)
	}
	return t
}
