// Package metrics implements the utility measures of the evaluation:
// spatial distortion, area coverage, trip-length preservation,
// origin–destination flows, popular-cell ranking and range-query
// accuracy. Together they quantify the paper's utility claim — that
// distorting time instead of space keeps published data useful for
// spatial analyses.
//
// Every metric exists in two forms sharing one implementation: a
// streaming accumulator (DistortionAcc, CellAcc for coverage and
// popular cells, LengthAcc, ODAcc, RangeQueryAcc — see acc.go) fed
// trace pairs with AddPair
// and combined with Merge, and a Dataset-level function that is a thin
// wrapper feeding a whole in-memory dataset through the accumulator.
// The accumulators obey a determinism contract — AddPair and Merge
// commute, so any partition of the input merged in any order is
// bit-identical — which is what lets EvalStore stream two on-disk
// stores through a worker pool and still match the batch path exactly.
//
// The geometry prunes without changing a bit. Distortion and
// completeness measure each point against a geo.SegmentIndex of the
// other side's path, which skips only segment groups a lower bound
// proves too far and is bit-identical to scanning every segment.
// RangeQueryAcc tests each point only against the query centers a
// geo.RadiusIndex returns, which yields the counts of testing every
// center.
package metrics

import (
	"errors"
	"fmt"
	"sort"

	"mobipriv/internal/geo"
	"mobipriv/internal/stats"
	"mobipriv/internal/trace"
)

// ErrNoCommonUsers reports that two datasets share no user identifiers.
var ErrNoCommonUsers = errors.New("metrics: datasets share no users")

var (
	errEmptyDataset  = errors.New("metrics: empty dataset")
	errEmptyOriginal = errors.New("metrics: empty original dataset")
)

// TraceDistortion returns the spatial distortion sample of one
// anonymized trace versus its original: for every published point, the
// distance in meters to the original path (pure geometry — time is
// ignored, because the mechanism under evaluation distorts time by
// design).
func TraceDistortion(orig, anon *trace.Trace) ([]float64, error) {
	ix, err := pathIndex(orig)
	if err != nil {
		return nil, fmt.Errorf("metrics: original path: %w", err)
	}
	out := make([]float64, anon.Len())
	for i, p := range anon.Points {
		out[i] = ix.DistanceTo(p.Point)
	}
	return out, nil
}

// CompletenessDistortion measures the opposite direction: for every
// original point, the distance to the published path. Large values mean
// parts of the original journey are missing from the publication
// (trimming, suppression, heavy perturbation).
func CompletenessDistortion(orig, anon *trace.Trace) ([]float64, error) {
	ix, err := pathIndex(anon)
	if err != nil {
		return nil, fmt.Errorf("metrics: published path: %w", err)
	}
	out := make([]float64, orig.Len())
	for i, p := range orig.Points {
		out[i] = ix.DistanceTo(p.Point)
	}
	return out, nil
}

// pathIndex indexes a trace's path for nearest-segment queries.
func pathIndex(tr *trace.Trace) (*geo.SegmentIndex, error) {
	return geo.NewSegmentIndex(len(tr.Points), func(i int) geo.Point { return tr.Points[i].Point })
}

// DatasetDistortion pools TraceDistortion over all users present in both
// datasets (matched by identifier). Users missing from either side are
// skipped; it is an error if no user matches.
func DatasetDistortion(orig, anon *trace.Dataset) ([]float64, error) {
	return pooledDistortion(orig, anon, TraceDistortion)
}

// DatasetCompleteness pools CompletenessDistortion over all users
// present in both datasets (matched by identifier): for every original
// observation, the distance to the user's published path. It is the
// direction in which trimming, suppression and corner-cutting show up.
func DatasetCompleteness(orig, anon *trace.Dataset) ([]float64, error) {
	return pooledDistortion(orig, anon, CompletenessDistortion)
}

func pooledDistortion(orig, anon *trace.Dataset, sample func(o, a *trace.Trace) ([]float64, error)) ([]float64, error) {
	var pooled []float64
	matched := false
	for _, at := range anon.Traces() {
		ot := orig.ByUser(at.User)
		if ot == nil {
			continue
		}
		matched = true
		ds, err := sample(ot, at)
		if err != nil {
			return nil, err
		}
		pooled = append(pooled, ds...)
	}
	if !matched {
		return nil, ErrNoCommonUsers
	}
	return pooled, nil
}

// CoverageResult reports how well the published dataset covers the
// geographic cells visited in the original.
type CoverageResult struct {
	Precision float64 // fraction of published cells that are genuine
	Recall    float64 // fraction of original cells still covered
	F1        float64
	OrigCells int
	AnonCells int
}

// Coverage rasterizes both datasets onto a square grid of the given cell
// size (meters) and compares the visited-cell sets.
func Coverage(orig, anon *trace.Dataset, cellSize float64) (CoverageResult, error) {
	acc, err := NewCellAcc(orig.Bounds().Center(), cellSize)
	if err != nil {
		return CoverageResult{}, err
	}
	feedDatasets(orig, anon, func(o, a *trace.Trace) { acc.AddPair(o, a) })
	return acc.Coverage(), nil
}

// feedDatasets drives an accumulator callback over two datasets the way
// a paired scan would: one call per user of the union, with the side a
// user is missing from nil.
func feedDatasets(orig, anon *trace.Dataset, add func(o, a *trace.Trace)) {
	for _, ot := range orig.Traces() {
		add(ot, anon.ByUser(ot.User))
	}
	for _, at := range anon.Traces() {
		if orig.ByUser(at.User) == nil {
			add(nil, at)
		}
	}
}

type cellID struct{ x, y int }

// LengthStats compares the distribution of per-user travelled distances.
type LengthStats struct {
	OrigMean, AnonMean     float64
	OrigMedian, AnonMedian float64
	// MeanRelError is |AnonMean - OrigMean| / OrigMean.
	MeanRelError float64
	// DecileError is the mean absolute relative error across the nine
	// deciles of the two length distributions (a cheap earth-mover
	// proxy).
	DecileError float64
}

// TripLengths compares trace length distributions of the two datasets.
func TripLengths(orig, anon *trace.Dataset) (LengthStats, error) {
	acc := NewLengthAcc()
	feedDatasets(orig, anon, func(o, a *trace.Trace) { acc.AddPair(o, a) })
	return acc.Result()
}

// ODResult reports origin–destination flow preservation: each trace
// contributes one (start cell, end cell) pair; flows are compared as
// multisets.
type ODResult struct {
	// Accuracy is the overlap fraction: sum over OD pairs of
	// min(orig,anon) counts divided by the number of original traces.
	Accuracy float64
	OrigOD   int // distinct OD pairs in the original
	AnonOD   int
}

// ODFlows compares origin–destination flows on the given cell size. The
// paper predicts this query class breaks under swapping — E11 quantifies
// exactly that.
func ODFlows(orig, anon *trace.Dataset, cellSize float64) (ODResult, error) {
	acc, err := NewODAcc(orig.Bounds().Center(), cellSize)
	if err != nil {
		return ODResult{}, err
	}
	feedDatasets(orig, anon, func(o, a *trace.Trace) { acc.AddPair(o, a) })
	return acc.Result()
}

type odKey struct{ o, d cellID }

// PopularCellsTau ranks grid cells by visit count in the original
// dataset, takes the top n, and returns the Kendall rank correlation of
// their counts in original versus anonymized data. 1 means the
// popularity ranking is perfectly preserved.
func PopularCellsTau(orig, anon *trace.Dataset, cellSize float64, n int) (float64, error) {
	if err := checkTopCells(cellSize, n); err != nil {
		return 0, err
	}
	acc, err := NewCellAcc(orig.Bounds().Center(), cellSize)
	if err != nil {
		return 0, err
	}
	feedDatasets(orig, anon, func(o, a *trace.Trace) { acc.AddPair(o, a) })
	return acc.PopularTau(n)
}

// checkTopCells validates the parameters of the popular-cells metric.
func checkTopCells(cellSize float64, n int) error {
	if cellSize <= 0 || n <= 1 {
		return fmt.Errorf("metrics: need positive cell size and n > 1 (got %v, %d)", cellSize, n)
	}
	return nil
}

// popularTau ranks the original cells (ties broken by coordinates) and
// correlates the top-n counts across the two sides.
func popularTau(oc, ac map[cellID]int64, n int) (float64, error) {
	type cc struct {
		id cellID
		n  int64
	}
	ranked := make([]cc, 0, len(oc))
	for id, cnt := range oc {
		ranked = append(ranked, cc{id, cnt})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		if ranked[i].id.x != ranked[j].id.x {
			return ranked[i].id.x < ranked[j].id.x
		}
		return ranked[i].id.y < ranked[j].id.y
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	if n < 2 {
		return 0, errors.New("metrics: fewer than 2 populated cells")
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(ranked[i].n)
		ys[i] = float64(ac[ranked[i].id])
	}
	return stats.KendallTau(xs, ys), nil
}

// RangeQueryError runs n random disc-counting queries (centers derived
// from the seed, uniform over the original bounding box, fixed radius)
// against both datasets and returns the per-query relative error of the
// normalized density: the fraction of each dataset's observations
// inside the disc. Using fractions rather than raw counts keeps the
// metric meaningful for mechanisms that change the total number of
// published points (smoothing, suppression).
//
// Query centers are a pure function of (seed, query index) via the
// shared internal/rng derivation — see queryPoints — so every consumer
// of the same seed, batch or store-native, evaluates the identical
// query set.
func RangeQueryError(orig, anon *trace.Dataset, n int, radius float64, seed int64) ([]float64, error) {
	box := orig.Bounds()
	acc, err := NewRangeQueryAcc(box, n, radius, seed)
	if err != nil {
		return nil, err
	}
	feedDatasets(orig, anon, func(o, a *trace.Trace) { acc.AddPair(o, a) })
	return acc.Errors()
}
