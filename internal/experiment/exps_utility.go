package experiment

import (
	"mobipriv/internal/metrics"
	"mobipriv/internal/stats"
	"mobipriv/internal/trace"
)

func init() {
	register(Experiment{ID: "E4", Title: "Spatial distortion per mechanism", Run: runE4})
	register(Experiment{ID: "E5", Title: "Area coverage F1 vs cell size", Run: runE5})
	register(Experiment{ID: "E11", Title: "Analyst query suite per mechanism", Run: runE11})
}

// runE4 compares the spatial distortion of each mechanism in both
// directions: published→original (does the published point lie on a real
// path?) and original→published "completeness" (is every real movement
// still represented?). The pipeline variant is excluded here because its
// identities are swapped; its spatial behaviour equals the promesse row
// plus the suppression quantified in E9.
func runE4(s Scale) (*Table, error) {
	g, err := commuterWorkload(s)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "E4",
		Title: "Spatial distortion per mechanism (commuter workload)",
		Columns: []string{"mechanism", "pub->orig med (m)", "pub->orig p95 (m)",
			"orig->pub med (m)", "orig->pub p95 (m)"},
	}
	for _, m := range standardMechanisms() {
		if m.name == "pipeline" {
			continue
		}
		published, err := m.apply(g.Dataset)
		if err != nil {
			return nil, err
		}
		r, err := metrics.EvalDataset(g.Dataset, published, metrics.EvalOptions{})
		if err != nil {
			return nil, err
		}
		ds, cs := r.Distortion, r.Completeness
		table.AddRow(m.name, fmtM(ds.P50), fmtM(ds.P95), fmtM(cs.P50), fmtM(cs.P95))
	}
	table.AddNote("expected shape: promesse pub->orig ~0 (published points lie on the original path) and orig->pub bounded by ~epsilon; geo-i median ~100 m to the nearest path segment (point displacement median is 167 m) at eps=0.01; w4m largest")
	return table, nil
}

// runE5 measures how faithfully each mechanism preserves which areas of
// the city were visited, across cell sizes.
func runE5(s Scale) (*Table, error) {
	g, err := commuterWorkload(s)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "E5",
		Title:   "Area coverage F1 vs cell size (commuter workload)",
		Columns: []string{"mechanism", "100 m", "200 m", "500 m", "1000 m"},
	}
	cells := []float64{100, 200, 500, 1000}
	center := g.Dataset.Bounds().Center()
	for _, m := range standardMechanisms() {
		published, err := m.apply(g.Dataset)
		if err != nil {
			return nil, err
		}
		row := []string{m.name}
		for _, c := range cells {
			acc, err := metrics.NewCellAcc(center, c)
			if err != nil {
				return nil, err
			}
			if err := metrics.FeedPairs(g.Dataset, published, func(o, a *trace.Trace) error {
				acc.AddPair(o, a)
				return nil
			}); err != nil {
				return nil, err
			}
			row = append(row, fmtF(acc.Coverage().F1))
		}
		table.AddRow(row...)
	}
	table.AddNote("expected shape: promesse/pipeline F1 near 1 for cells >= epsilon; geo-i degrades at small cells; w4m lowest")
	return table, nil
}

// runE11 runs the analyst query suite: trip lengths, OD flows, popular
// cells, range queries. This is where the paper's own caveat shows up:
// transition (OD) analyses break under swapping while spatial densities
// survive.
func runE11(s Scale) (*Table, error) {
	g, err := commuterWorkload(s)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "E11",
		Title:   "Analyst query suite (commuter workload)",
		Columns: []string{"mechanism", "trip len err", "OD accuracy", "popular tau", "range qry err"},
	}
	box := g.Dataset.Bounds()
	for _, m := range standardMechanisms() {
		published, err := m.apply(g.Dataset)
		if err != nil {
			return nil, err
		}
		lenAcc := metrics.NewLengthAcc()
		odAcc, err := metrics.NewODAcc(box.Center(), 500)
		if err != nil {
			return nil, err
		}
		cellAcc, err := metrics.NewCellAcc(box.Center(), 500)
		if err != nil {
			return nil, err
		}
		rqAcc, err := metrics.NewRangeQueryAcc(box, 100, 500, 1)
		if err != nil {
			return nil, err
		}
		if err := metrics.FeedPairs(g.Dataset, published, func(o, a *trace.Trace) error {
			lenAcc.AddPair(o, a)
			odAcc.AddPair(o, a)
			cellAcc.AddPair(o, a)
			rqAcc.AddPair(o, a)
			return nil
		}); err != nil {
			return nil, err
		}
		lens, err := lenAcc.Result()
		if err != nil {
			return nil, err
		}
		od, err := odAcc.Result()
		if err != nil {
			return nil, err
		}
		tau, err := cellAcc.PopularTau(20)
		if err != nil {
			return nil, err
		}
		rq, err := rqAcc.Errors()
		if err != nil {
			return nil, err
		}
		table.AddRow(m.name, fmtF(lens.MeanRelError), fmtF(od.Accuracy), fmtF(tau),
			fmtF(stats.Mean(rq)))
	}
	table.AddNote("expected shape: pipeline keeps popular-cells/coverage-style queries, loses OD (swapping); geo-i loses density detail; w4m loses both")
	table.AddNote("range query error uses 100 random 500 m disc-count queries; promesse/pipeline error reflects time re-distribution, not spatial error")
	return table, nil
}
