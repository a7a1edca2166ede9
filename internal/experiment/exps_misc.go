package experiment

import (
	"fmt"
	"time"

	"mobipriv/internal/attack/poiattack"
	"mobipriv/internal/baseline/w4m"
	"mobipriv/internal/metrics"
	"mobipriv/internal/stats"
)

func init() {
	register(Experiment{ID: "E8", Title: "Wait4Me (k,delta) sweep", Run: runE8})
	register(Experiment{ID: "E10", Title: "Throughput per mechanism", Run: runE10})
}

// runE8 sweeps Wait4Me's two parameters, showing the privacy knob's cost
// in distortion and suppression and its failure to hide POIs.
func runE8(s Scale) (*Table, error) {
	g, err := commuterWorkload(s)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "E8",
		Title: "Wait4Me (k,delta) sweep (commuter workload)",
		Columns: []string{"k", "delta (m)", "suppressed users", "median dist (m)",
			"p95 dist (m)", "poi F1 (per-user)"},
	}
	ks := []int{2, 4, 8}
	deltas := []float64{100, 500, 2000}
	for _, k := range ks {
		for _, delta := range deltas {
			res, err := w4m.Anonymize(g.Dataset, w4m.Config{K: k, Delta: delta})
			if err != nil {
				return nil, err
			}
			if res.Dataset.Len() == 0 {
				table.AddRow(fmtI(k), fmt.Sprintf("%.0f", delta),
					fmtI(len(res.Suppressed)), "-", "-", "-")
				continue
			}
			dist, err := metrics.DatasetDistortion(g.Dataset, res.Dataset)
			if err != nil {
				return nil, err
			}
			sum := stats.Summarize(dist)
			atk, err := poiattack.Evaluate(res.Dataset, g.Stays, poiattack.DefaultConfig())
			if err != nil {
				return nil, err
			}
			table.AddRow(fmtI(k), fmt.Sprintf("%.0f", delta), fmtI(len(res.Suppressed)),
				fmtM(sum.Median), fmtM(sum.P95), fmtF(atk.PerUser.F1))
		}
	}
	table.AddNote("expected shape: distortion grows with k and shrinks with delta; POI F1 stays well above promesse's because stops survive")
	return table, nil
}

// runE10 measures wall-clock throughput (input points per second) of
// each mechanism on the commuter workload.
func runE10(s Scale) (*Table, error) {
	g, err := commuterWorkload(s)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "E10",
		Title:   "Anonymization throughput (commuter workload)",
		Columns: []string{"mechanism", "input points", "wall time", "points/s"},
	}
	points := g.Dataset.TotalPoints()
	for _, m := range standardMechanisms() {
		if m.name == "raw" {
			continue
		}
		start := time.Now()
		if _, err := m.apply(g.Dataset); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		pps := float64(points) / elapsed.Seconds()
		table.AddRow(m.name, fmtI(points), elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", pps))
	}
	table.AddNote("single-threaded wall time; see bench/README.md for the end-to-end benchmark")
	return table, nil
}
