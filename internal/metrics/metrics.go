// Package metrics implements the utility measures of the evaluation:
// spatial distortion, area coverage, trip-length preservation,
// origin–destination flows, popular-cell ranking and range-query
// accuracy. Together they quantify the paper's utility claim — that
// distorting time instead of space keeps published data useful for
// spatial analyses.
//
// Every metric has one implementation: a streaming accumulator
// (DistortionAcc and its completeness direction, CellAcc for coverage
// and popular cells, LengthAcc, ODAcc, RangeQueryAcc — see acc.go) fed
// trace pairs with AddPair and combined with Merge. EvalAcc bundles one
// of each; EvalDataset feeds it from two in-memory datasets through
// FeedPairs, EvalStore from a paired scan of two stores. Callers that
// need only one metric (the experiments' sweeps, mobistore diff) feed
// that accumulator alone, so every number the repository prints comes
// from the same code mobieval reports through. The accumulators obey a
// determinism contract — AddPair and Merge commute, so any partition of
// the input merged in any order is bit-identical — which is what lets
// EvalStore stream two on-disk stores through a worker pool and still
// match the batch path exactly.
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

	"mobipriv/internal/stats"
	"mobipriv/internal/trace"
)

var (
	errEmptyDataset  = errors.New("metrics: empty dataset")
	errEmptyOriginal = errors.New("metrics: empty original dataset")
)

// CoverageResult reports how well the published dataset covers the
// geographic cells visited in the original.
type CoverageResult struct {
	Precision float64 // fraction of published cells that are genuine
	Recall    float64 // fraction of original cells still covered
	F1        float64
	OrigCells int
	AnonCells int
}

// FeedPairs drives an accumulator over two in-memory datasets the way
// a paired store scan does: one add call per user of the union, the
// original's users first, with the side a user is missing from nil. It
// stops at, and returns, the first error add returns.
func FeedPairs(orig, anon *trace.Dataset, add func(o, a *trace.Trace) error) error {
	for _, ot := range orig.Traces() {
		if err := add(ot, anon.ByUser(ot.User)); err != nil {
			return err
		}
	}
	for _, at := range anon.Traces() {
		if orig.ByUser(at.User) == nil {
			if err := add(nil, at); err != nil {
				return err
			}
		}
	}
	return nil
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

type odKey struct{ o, d cellID }

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
