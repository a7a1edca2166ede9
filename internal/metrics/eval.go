package metrics

import (
	"fmt"
	"io"

	"mobipriv/internal/geo"
	"mobipriv/internal/risk"
	"mobipriv/internal/stats"
	"mobipriv/internal/store"
	"mobipriv/internal/trace"
)

// EvalOptions configures a full evaluation run (EvalDataset,
// EvalStore). The zero value evaluates with the paper's defaults on a
// grid anchored at the original dataset's bounding box.
type EvalOptions struct {
	// CellSize is the grid cell size in meters for coverage, OD flows
	// and popular cells (default 500).
	CellSize float64

	// TopCells is how many top-ranked cells the popularity metric
	// correlates (default 20).
	TopCells int

	// Queries is the number of random range queries (default 100) and
	// QueryRadius their disc radius in meters (default CellSize).
	Queries     int
	QueryRadius float64

	// Seed derives the range-query centers; see queryPoints for the
	// (seed, index) derivation. Zero is a valid seed.
	Seed int64

	// Bounds anchors the evaluation grid and the query box. When
	// empty, EvalDataset derives it from the original dataset and
	// EvalStore from the original store's manifest — identical values
	// for the same unfiltered data, because the manifest tracks the
	// quantized bounds that Load reproduces. Pass it explicitly to
	// compare filtered runs on a common grid.
	Bounds geo.BBox

	// Scan filters and tunes the paired scan (EvalStore only): bbox,
	// time window, user list and worker count apply to both stores.
	// The NoCache and Stats fields are owned by EvalStore and ignored.
	Scan store.ScanOptions

	// Attack, when non-nil, scores the POI-retrieval attack on the
	// anonymized side alongside the utility metrics; the scores join
	// the Report. The accumulator streams per trace, so enabling it
	// keeps both EvalDataset and EvalStore Load-free.
	Attack *AttackOptions
}

// AttackOptions carries the ground truth and configuration of the
// POI-retrieval attack into an evaluation run.
type AttackOptions struct {
	// Truth maps each original user to their ground-truth POI
	// locations (risk.TruthPOIs).
	Truth map[string][]geo.Point
	// Config parameterizes extraction and matching.
	Config risk.AttackConfig
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.CellSize == 0 {
		o.CellSize = 500
	}
	if o.TopCells == 0 {
		o.TopCells = 20
	}
	if o.Queries == 0 {
		o.Queries = 100
	}
	if o.QueryRadius == 0 {
		o.QueryRadius = o.CellSize
	}
	return o
}

// EvalAcc bundles one accumulator per metric behind a single
// AddPair/Merge pair — the unit of work the store-native evaluation
// fans over its workers. It obeys the same determinism contract as its
// parts: any partition of the trace pairs over any number of EvalAccs,
// merged in any order, reports bit-identical metrics.
type EvalAcc struct {
	opts EvalOptions

	dist  *DistortionAcc
	comp  *DistortionAcc
	cells *CellAcc // coverage and popular cells
	lens  *LengthAcc
	od    *ODAcc
	rq    *RangeQueryAcc

	origTraces, anonTraces int64
	origPoints, anonPoints int64

	attack *risk.AttackAcc // nil unless opts.Attack is set
}

// NewEvalAcc builds the accumulator bundle. Opts.Bounds must be
// non-empty: it anchors the grid and the query box.
func NewEvalAcc(opts EvalOptions) (*EvalAcc, error) {
	opts = opts.withDefaults()
	if opts.Bounds.IsEmpty() {
		return nil, errEmptyOriginal
	}
	center := opts.Bounds.Center()
	cells, err := NewCellAcc(center, opts.CellSize)
	if err != nil {
		return nil, err
	}
	od, err := NewODAcc(center, opts.CellSize)
	if err != nil {
		return nil, err
	}
	if err := checkTopCells(opts.CellSize, opts.TopCells); err != nil {
		return nil, err
	}
	rq, err := NewRangeQueryAcc(opts.Bounds, opts.Queries, opts.QueryRadius, opts.Seed)
	if err != nil {
		return nil, err
	}
	acc := &EvalAcc{
		opts:  opts,
		dist:  NewDistortionAcc(),
		comp:  NewCompletenessAcc(),
		cells: cells,
		lens:  NewLengthAcc(),
		od:    od,
		rq:    rq,
	}
	if opts.Attack != nil {
		if acc.attack, err = risk.NewAttackAcc(opts.Attack.Truth, opts.Attack.Config); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// AddPair folds one user's aligned traces into every metric. Either
// side may be nil for a one-sided user.
func (a *EvalAcc) AddPair(orig, anon *trace.Trace) error {
	if orig == nil && anon == nil {
		return nil
	}
	if orig != nil {
		a.origTraces++
		a.origPoints += int64(orig.Len())
	}
	if anon != nil {
		a.anonTraces++
		a.anonPoints += int64(anon.Len())
	}
	if err := a.dist.AddPair(orig, anon); err != nil {
		return err
	}
	if err := a.comp.AddPair(orig, anon); err != nil {
		return err
	}
	a.cells.AddPair(orig, anon)
	a.lens.AddPair(orig, anon)
	a.od.AddPair(orig, anon)
	a.rq.AddPair(orig, anon)
	if a.attack != nil && anon != nil {
		a.attack.AddTrace(anon)
	}
	return nil
}

// Merge folds another bundle built with the same options into a.
func (a *EvalAcc) Merge(b *EvalAcc) {
	a.origTraces += b.origTraces
	a.anonTraces += b.anonTraces
	a.origPoints += b.origPoints
	a.anonPoints += b.anonPoints
	a.dist.Merge(b.dist)
	a.comp.Merge(b.comp)
	a.cells.Merge(b.cells)
	a.lens.Merge(b.lens)
	a.od.Merge(b.od)
	a.rq.Merge(b.rq)
	if a.attack != nil {
		a.attack.Merge(b.attack)
	}
}

// Report finalizes every accumulator. It fails when either side ended
// up empty (nothing to evaluate); a missing user intersection only
// degrades the distortion sections, exactly as the batch tools always
// have.
func (a *EvalAcc) Report() (*Report, error) {
	r := &Report{
		CellSize:    a.opts.CellSize,
		TopCells:    a.opts.TopCells,
		Queries:     a.opts.Queries,
		QueryRadius: a.opts.QueryRadius,
		OrigTraces:  a.origTraces,
		AnonTraces:  a.anonTraces,
		OrigPoints:  a.origPoints,
		AnonPoints:  a.anonPoints,
		Distortion:  a.dist.Summary(),
		Coverage:    a.cells.Coverage(),
	}
	r.Completeness = a.comp.Summary()
	var err error
	if r.Lengths, err = a.lens.Result(); err != nil {
		return nil, err
	}
	if r.OD, err = a.od.Result(); err != nil {
		return nil, err
	}
	if r.QueryErrors, err = a.rq.Errors(); err != nil {
		return nil, err
	}
	if tau, err := a.cells.PopularTau(a.opts.TopCells); err == nil {
		r.PopularTau, r.PopularOK = tau, true
	}
	if a.attack != nil {
		res := a.attack.Result()
		r.Attack = &res
	}
	return r, nil
}

// Report is the full utility report of one evaluation — the same
// struct whichever path produced it (batch EvalDataset or streaming
// EvalStore).
type Report struct {
	CellSize    float64
	TopCells    int
	Queries     int
	QueryRadius float64

	OrigTraces, AnonTraces int64
	OrigPoints, AnonPoints int64

	// Distortion pools published-point-to-original-path distances;
	// Completeness the reverse. Both are zero (N=0) when the datasets
	// share no users.
	Distortion   DistSummary
	Completeness DistSummary

	Coverage CoverageResult
	Lengths  LengthStats
	OD       ODResult

	// PopularTau is valid only when PopularOK (at least two populated
	// cells).
	PopularTau float64
	PopularOK  bool

	// QueryErrors holds the per-query relative errors, in query order.
	QueryErrors []float64

	// Attack holds the POI-retrieval attack scores; nil unless the run
	// was configured with EvalOptions.Attack.
	Attack *risk.Result
}

// WriteText renders the report in the mobieval text format — the one
// pinned by the golden-report test, so metric regressions show up as
// diffs.
func (r *Report) WriteText(w io.Writer) error {
	pr := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return err
	}
	if err := pr("original:   %d traces, %d points\nanonymized: %d traces, %d points\n\n",
		r.OrigTraces, r.OrigPoints, r.AnonTraces, r.AnonPoints); err != nil {
		return err
	}
	if r.Distortion.N == 0 {
		if err := pr("spatial distortion: skipped (no common users)\n"); err != nil {
			return err
		}
	} else {
		d, c := r.Distortion, r.Completeness
		if err := pr("spatial distortion (pub->orig): %s\ncompleteness (orig->pub):       %s\n",
			d, c); err != nil {
			return err
		}
	}
	cov := r.Coverage
	if err := pr("coverage @%.0fm: P=%.3f R=%.3f F1=%.3f (%d->%d cells)\n",
		r.CellSize, cov.Precision, cov.Recall, cov.F1, cov.OrigCells, cov.AnonCells); err != nil {
		return err
	}
	if err := pr("trip lengths: mean %.0f -> %.0f m (rel err %.3f), decile err %.3f\n",
		r.Lengths.OrigMean, r.Lengths.AnonMean, r.Lengths.MeanRelError, r.Lengths.DecileError); err != nil {
		return err
	}
	if err := pr("OD flows @%.0fm: accuracy %.3f (%d -> %d distinct pairs)\n",
		r.CellSize, r.OD.Accuracy, r.OD.OrigOD, r.OD.AnonOD); err != nil {
		return err
	}
	if r.PopularOK {
		if err := pr("popular cells (top %d): kendall tau %.3f\n", r.TopCells, r.PopularTau); err != nil {
			return err
		}
	}
	if err := pr("range queries (%d @%.0fm): mean rel err %.3f, p95 %.3f\n",
		len(r.QueryErrors), r.QueryRadius, stats.Mean(r.QueryErrors), stats.Quantile(r.QueryErrors, 0.95)); err != nil {
		return err
	}
	if r.Attack != nil {
		return pr("\nPOI retrieval attack:\n  per-user: %s\n  global:   %s\n",
			r.Attack.PerUser, r.Attack.Global)
	}
	return nil
}

// String renders a DistSummary on one line.
func (s DistSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.2f p50=%.2f p95=%.2f max=%.2f",
		s.N, s.Mean, s.Min, s.P50, s.P95, s.Max)
}

// EvalDataset evaluates an anonymized dataset against its original —
// the batch entry point, one accumulator fed serially. The report is
// bit-identical to EvalStore over stores holding the same data.
func EvalDataset(orig, anon *trace.Dataset, opts EvalOptions) (*Report, error) {
	if opts.Bounds.IsEmpty() {
		opts.Bounds = orig.Bounds()
	}
	acc, err := NewEvalAcc(opts)
	if err != nil {
		return nil, err
	}
	if err := FeedPairs(orig, anon, acc.AddPair); err != nil {
		return nil, err
	}
	return acc.Report()
}
