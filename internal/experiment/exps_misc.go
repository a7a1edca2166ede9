package experiment

import (
	"fmt"

	"mobipriv/internal/attack/poiattack"
	"mobipriv/internal/baseline/w4m"
	"mobipriv/internal/metrics"
)

func init() {
	register(Experiment{ID: "E8", Title: "Wait4Me (k,delta) sweep", Run: runE8})
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
			acc := metrics.NewDistortionAcc()
			if err := metrics.FeedPairs(g.Dataset, res.Dataset, acc.AddPair); err != nil {
				return nil, err
			}
			sum := acc.Summary()
			atk, err := poiattack.Evaluate(res.Dataset, g.Stays, poiattack.DefaultConfig())
			if err != nil {
				return nil, err
			}
			table.AddRow(fmtI(k), fmt.Sprintf("%.0f", delta), fmtI(len(res.Suppressed)),
				fmtM(sum.P50), fmtM(sum.P95), fmtF(atk.PerUser.F1))
		}
	}
	table.AddNote("expected shape: distortion grows with k and shrinks with delta; POI F1 stays well above promesse's because stops survive")
	return table, nil
}
