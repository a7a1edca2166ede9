package metrics

import (
	"fmt"
	"math"
	"sort"

	"mobipriv/internal/geo"
	"mobipriv/internal/rng"
	"mobipriv/internal/stats"
	"mobipriv/internal/trace"
)

// This file holds the streaming accumulator form of every metric: one
// accumulator per metric, fed trace pairs with AddPair and combined
// with Merge. The Dataset-level functions in metrics.go are thin
// wrappers that feed a whole dataset through an accumulator, so batch
// and store-native evaluation share one implementation.
//
// The determinism contract every accumulator obeys: AddPair and Merge
// commute — any partition of the input pairs over any number of
// accumulators, merged in any order, yields bit-identical results.
// That is what lets EvalStore fan pairs over a worker pool and still
// match the serial Load()-based path exactly. The rule is achieved by
// keeping only merge-order-invariant state (integer counts,
// integer-quantized sums, min/max folds, set unions) and deferring
// every order-sensitive float computation to the final Result call,
// which operates on values brought into a canonical (sorted) order
// first.

// u128 is an unsigned 128-bit integer accumulator: exact, overflow-safe
// integer sums are addition-order invariant where floating-point sums
// are not.
type u128 struct{ hi, lo uint64 }

func (a *u128) add(v uint64) {
	lo := a.lo + v
	if lo < a.lo {
		a.hi++
	}
	a.lo = lo
}

func (a *u128) merge(b u128) {
	a.add(b.lo)
	a.hi += b.hi
}

// toFloat converts to float64 (rounded; deterministic).
func (a u128) toFloat() float64 {
	return float64(a.hi)*0x1p64 + float64(a.lo)
}

// Distortion histogram: distances are quantized to micrometers and
// binned on the stats log-bin geometry (~4.5% relative resolution).
// Quantiles read from the histogram are therefore approximate to that
// resolution, while counts, the mean (exact integer sum) and min/max
// are exact. Up to distExactCap pooled samples the quantiles are exact
// instead: DistortionAcc keeps every sample until the pool outgrows it.
const distExactCap = 256

// DistSummary is the streaming summary of a pooled distance sample.
type DistSummary struct {
	N        int64
	Mean     float64 // exact (integer-sum) mean
	Min, Max float64 // exact
	// P50 and P95 are exact order statistics up to 256 samples, log-bin
	// histogram quantiles (~4.5% relative resolution) beyond.
	P50, P95 float64
}

// DistortionAcc pools per-point spatial distortion samples
// (TraceDistortion; with the completeness direction it pools
// CompletenessDistortion). Only users present on both sides contribute,
// so one-sided AddPair calls are no-ops.
//
// Quantiles are exact up to 256 samples and come from log bins beyond:
// the accumulator keeps every pooled sample, so P50/P95 are exact order
// statistics, until the pool passes 256; then it drops them and the
// micrometer log-bin histogram answers at its ~4.5% resolution. A
// multiset and integer bin counts are both merge-order invariant, and
// the regime depends only on the total count, so AddPair and Merge
// still commute bit-identically.
type DistortionAcc struct {
	reverse bool // completeness: original points vs published path
	n       int64
	sum     u128 // micrometers
	min     float64
	max     float64
	hist    []int64
	exact   []float64 // every sample while n <= distExactCap, else nil
}

// NewDistortionAcc returns an accumulator for the published-vs-original
// distortion direction.
func NewDistortionAcc() *DistortionAcc {
	return &DistortionAcc{hist: make([]int64, stats.LogBins)}
}

// NewCompletenessAcc returns an accumulator for the opposite direction:
// every original point's distance to the published path.
func NewCompletenessAcc() *DistortionAcc {
	return &DistortionAcc{reverse: true, hist: make([]int64, stats.LogBins)}
}

// AddPair folds one user's distortion samples into the accumulator.
// Either side nil means the user is one-sided: no samples.
func (a *DistortionAcc) AddPair(orig, anon *trace.Trace) error {
	if orig == nil || anon == nil {
		return nil
	}
	var ds []float64
	var err error
	if a.reverse {
		ds, err = CompletenessDistortion(orig, anon)
	} else {
		ds, err = TraceDistortion(orig, anon)
	}
	if err != nil {
		return err
	}
	for _, d := range ds {
		a.add(d)
	}
	return nil
}

func (a *DistortionAcc) add(d float64) {
	if !(d > 0) { // NaN, negatives and -0 all pool as +0
		d = 0
	}
	if a.n == 0 || d < a.min {
		a.min = d
	}
	if a.n == 0 || d > a.max {
		a.max = d
	}
	a.n++
	um := uint64(math.Round(d * 1e6))
	a.sum.add(um)
	a.hist[stats.LogBin(um)]++
	if a.n <= distExactCap {
		a.exact = append(a.exact, d)
	} else {
		a.exact = nil
	}
}

// Merge folds another accumulator of the same direction into a.
func (a *DistortionAcc) Merge(b *DistortionAcc) {
	if b.n == 0 {
		return
	}
	if a.n == 0 || b.min < a.min {
		a.min = b.min
	}
	if a.n == 0 || b.max > a.max {
		a.max = b.max
	}
	a.n += b.n
	a.sum.merge(b.sum)
	for i, c := range b.hist {
		a.hist[i] += c
	}
	if a.n <= distExactCap {
		a.exact = append(a.exact, b.exact...)
	} else {
		a.exact = nil
	}
}

// quantile returns the sample quantile at rank floor(q*(n-1)): the
// exact order statistic while every sample is kept, the log-histogram's
// lower bin edge clamped to the exact [min, max] envelope beyond. The
// regime depends only on the total count, so partitioned-and-merged
// accumulators agree with serial ones exactly.
func (a *DistortionAcc) quantile(q float64) float64 {
	if a.n == 0 {
		return 0
	}
	if a.exact != nil {
		s := append([]float64(nil), a.exact...)
		sort.Float64s(s)
		return s[int64(q*float64(len(s)-1))]
	}
	b := stats.LogBinRank(uint64(a.n), q, func(b int) uint64 { return uint64(a.hist[b]) })
	return min(max(stats.LogBinEdge(b)*1e-6, a.min), a.max)
}

// Summary returns the streaming summary; the zero summary when no
// samples were pooled (no common users).
func (a *DistortionAcc) Summary() DistSummary {
	if a.n == 0 {
		return DistSummary{}
	}
	return DistSummary{
		N:    a.n,
		Mean: a.sum.toFloat() / 1e6 / float64(a.n),
		Min:  a.min,
		Max:  a.max,
		P50:  a.quantile(0.5),
		P95:  a.quantile(0.95),
	}
}

// gridder rasterizes points onto the square evaluation grid. The grid
// is anchored at an explicit center so that two scans of the same data
// — batch or store-native, filtered or not — agree cell for cell.
type gridder struct {
	proj *geo.Projector
	cell float64
}

func newGridder(center geo.Point, cellSize float64) (gridder, error) {
	if cellSize <= 0 {
		return gridder{}, fmt.Errorf("metrics: cell size %v must be positive", cellSize)
	}
	return gridder{proj: geo.NewProjector(center), cell: cellSize}, nil
}

func (g gridder) at(p geo.Point) cellID {
	v := g.proj.ToXY(p)
	return cellID{int(math.Floor(v.X / g.cell)), int(math.Floor(v.Y / g.cell))}
}

// CoverageAcc accumulates the visited-cell sets of both datasets.
type CoverageAcc struct {
	grid gridder
	orig map[cellID]struct{}
	anon map[cellID]struct{}
}

// NewCoverageAcc returns a coverage accumulator on a grid of the given
// cell size (meters) anchored at center.
func NewCoverageAcc(center geo.Point, cellSize float64) (*CoverageAcc, error) {
	grid, err := newGridder(center, cellSize)
	if err != nil {
		return nil, err
	}
	return &CoverageAcc{grid: grid, orig: make(map[cellID]struct{}), anon: make(map[cellID]struct{})}, nil
}

// AddPair marks the cells visited by each non-nil side.
func (a *CoverageAcc) AddPair(orig, anon *trace.Trace) {
	mark := func(set map[cellID]struct{}, tr *trace.Trace) {
		if tr == nil {
			return
		}
		for _, p := range tr.Points {
			set[a.grid.at(p.Point)] = struct{}{}
		}
	}
	mark(a.orig, orig)
	mark(a.anon, anon)
}

// Merge unions another accumulator's cell sets into a.
func (a *CoverageAcc) Merge(b *CoverageAcc) {
	for c := range b.orig {
		a.orig[c] = struct{}{}
	}
	for c := range b.anon {
		a.anon[c] = struct{}{}
	}
}

// Result compares the accumulated cell sets.
func (a *CoverageAcc) Result() CoverageResult {
	var hit int
	for c := range a.anon {
		if _, ok := a.orig[c]; ok {
			hit++
		}
	}
	res := CoverageResult{OrigCells: len(a.orig), AnonCells: len(a.anon)}
	if len(a.anon) > 0 {
		res.Precision = float64(hit) / float64(len(a.anon))
	}
	if len(a.orig) > 0 {
		res.Recall = float64(hit) / float64(len(a.orig))
	}
	if res.Precision+res.Recall > 0 {
		res.F1 = 2 * res.Precision * res.Recall / (res.Precision + res.Recall)
	}
	return res
}

// LengthAcc accumulates the per-trace travelled distances of both
// sides. Its state is one float64 per trace — O(users), not O(points).
type LengthAcc struct {
	orig []float64
	anon []float64
}

// NewLengthAcc returns an empty length accumulator.
func NewLengthAcc() *LengthAcc { return &LengthAcc{} }

// AddPair records the length of each non-nil side.
func (a *LengthAcc) AddPair(orig, anon *trace.Trace) {
	if orig != nil {
		a.orig = append(a.orig, orig.Length())
	}
	if anon != nil {
		a.anon = append(a.anon, anon.Length())
	}
}

// Merge appends another accumulator's lengths; Result sorts, so the
// append order never shows.
func (a *LengthAcc) Merge(b *LengthAcc) {
	a.orig = append(a.orig, b.orig...)
	a.anon = append(a.anon, b.anon...)
}

// Result compares the two length distributions. It sorts the samples
// into a canonical order first, so any partition of the input merged in
// any order produces bit-identical statistics.
func (a *LengthAcc) Result() (LengthStats, error) {
	if len(a.orig) == 0 || len(a.anon) == 0 {
		return LengthStats{}, errEmptyDataset
	}
	ol := append([]float64(nil), a.orig...)
	al := append([]float64(nil), a.anon...)
	sort.Float64s(ol)
	sort.Float64s(al)
	ls := LengthStats{
		OrigMean:   stats.Mean(ol),
		AnonMean:   stats.Mean(al),
		OrigMedian: stats.Median(ol),
		AnonMedian: stats.Median(al),
	}
	if ls.OrigMean > 0 {
		ls.MeanRelError = math.Abs(ls.AnonMean-ls.OrigMean) / ls.OrigMean
	}
	var sum float64
	var n int
	for q := 0.1; q < 0.95; q += 0.1 {
		oq := stats.Quantile(ol, q)
		aq := stats.Quantile(al, q)
		if oq > 0 {
			sum += math.Abs(aq-oq) / oq
			n++
		}
	}
	if n > 0 {
		ls.DecileError = sum / float64(n)
	}
	return ls, nil
}

// ODAcc accumulates origin–destination flows: each trace contributes
// one (start cell, end cell) pair on each side it exists.
type ODAcc struct {
	grid       gridder
	origTraces int64
	orig       map[odKey]int64
	anon       map[odKey]int64
}

// NewODAcc returns an OD-flow accumulator on a grid of the given cell
// size anchored at center.
func NewODAcc(center geo.Point, cellSize float64) (*ODAcc, error) {
	grid, err := newGridder(center, cellSize)
	if err != nil {
		return nil, err
	}
	return &ODAcc{grid: grid, orig: make(map[odKey]int64), anon: make(map[odKey]int64)}, nil
}

// AddPair records the OD pair of each non-nil side.
func (a *ODAcc) AddPair(orig, anon *trace.Trace) {
	if orig != nil {
		a.orig[odKey{a.grid.at(orig.Start().Point), a.grid.at(orig.End().Point)}]++
		a.origTraces++
	}
	if anon != nil {
		a.anon[odKey{a.grid.at(anon.Start().Point), a.grid.at(anon.End().Point)}]++
	}
}

// Merge adds another accumulator's flow counts into a.
func (a *ODAcc) Merge(b *ODAcc) {
	a.origTraces += b.origTraces
	for k, c := range b.orig {
		a.orig[k] += c
	}
	for k, c := range b.anon {
		a.anon[k] += c
	}
}

// Result compares the flows as multisets.
func (a *ODAcc) Result() (ODResult, error) {
	if a.origTraces == 0 {
		return ODResult{}, errEmptyOriginal
	}
	var overlap int64
	for k, oc := range a.orig {
		if ac := a.anon[k]; ac < oc {
			overlap += ac
		} else {
			overlap += oc
		}
	}
	return ODResult{
		Accuracy: float64(overlap) / float64(a.origTraces),
		OrigOD:   len(a.orig),
		AnonOD:   len(a.anon),
	}, nil
}

// PopularAcc accumulates per-cell visit counts for the popularity
// ranking comparison.
type PopularAcc struct {
	grid gridder
	topN int
	orig map[cellID]int64
	anon map[cellID]int64
}

// NewPopularAcc returns a popularity accumulator ranking the top n
// cells of a grid of the given cell size anchored at center.
func NewPopularAcc(center geo.Point, cellSize float64, n int) (*PopularAcc, error) {
	if cellSize <= 0 || n <= 1 {
		return nil, fmt.Errorf("metrics: need positive cell size and n > 1 (got %v, %d)", cellSize, n)
	}
	grid, err := newGridder(center, cellSize)
	if err != nil {
		return nil, err
	}
	return &PopularAcc{grid: grid, topN: n, orig: make(map[cellID]int64), anon: make(map[cellID]int64)}, nil
}

// AddPair counts the cell visits of each non-nil side.
func (a *PopularAcc) AddPair(orig, anon *trace.Trace) {
	count := func(m map[cellID]int64, tr *trace.Trace) {
		if tr == nil {
			return
		}
		for _, p := range tr.Points {
			m[a.grid.at(p.Point)]++
		}
	}
	count(a.orig, orig)
	count(a.anon, anon)
}

// Merge adds another accumulator's visit counts into a.
func (a *PopularAcc) Merge(b *PopularAcc) {
	for c, n := range b.orig {
		a.orig[c] += n
	}
	for c, n := range b.anon {
		a.anon[c] += n
	}
}

// Result ranks the original cells by visit count (ties broken by cell
// coordinates, so the ranking is deterministic) and returns the Kendall
// tau of their counts in the anonymized data.
func (a *PopularAcc) Result() (float64, error) {
	return popularTau(a.orig, a.anon, a.topN)
}

// RangeQueryAcc accumulates per-query disc counts for the range-query
// error metric. The query centers are derived from the seed alone (see
// queryPoints), so two scans of the same data — batch or store-native —
// count against the identical query set.
//
// A point is tested only against the queries of its latitude band: a
// disc of the radius spans at most radius/R radians of latitude, so
// the centers are sorted by latitude once and each point
// binary-searches the band (widened by a relative 1e-9 and 1e-9°, far
// above rounding). Every pair in the band takes the same FastDistance
// test as a scan of all queries, and every pair outside it is provably
// farther than the radius, so the counts are identical.
type RangeQueryAcc struct {
	queries   []geo.Point
	radius    float64
	band      float64   // half-height of a latitude band, degrees
	lats      []float64 // query latitudes, ascending
	byLat     []int     // byLat[j] is the query index of lats[j]
	orig      []int64
	anon      []int64
	origTotal int64
	anonTotal int64
}

// NewRangeQueryAcc returns an accumulator for n disc-counting queries
// of the given radius, uniform over box, derived from seed.
func NewRangeQueryAcc(box geo.BBox, n int, radius float64, seed int64) (*RangeQueryAcc, error) {
	if n <= 0 || radius <= 0 {
		return nil, fmt.Errorf("metrics: need positive query count and radius (got %d, %v)", n, radius)
	}
	if box.IsEmpty() {
		return nil, errEmptyOriginal
	}
	return newRangeQueryAcc(queryPoints(box, n, seed), radius), nil
}

// newRangeQueryAcc returns an accumulator for the given query centers,
// sorted by latitude for the band search.
func newRangeQueryAcc(queries []geo.Point, radius float64) *RangeQueryAcc {
	byLat := make([]int, len(queries))
	for i := range byLat {
		byLat[i] = i
	}
	sort.SliceStable(byLat, func(i, j int) bool { return queries[byLat[i]].Lat < queries[byLat[j]].Lat })
	lats := make([]float64, len(queries))
	for j, qi := range byLat {
		lats[j] = queries[qi].Lat
	}
	return &RangeQueryAcc{
		queries: queries,
		radius:  radius,
		band:    radius/geo.EarthRadius*(180/math.Pi)*(1+1e-9) + 1e-9,
		lats:    lats,
		byLat:   byLat,
		orig:    make([]int64, len(queries)),
		anon:    make([]int64, len(queries)),
	}
}

// AddPair counts each non-nil side's points against every query disc.
func (a *RangeQueryAcc) AddPair(orig, anon *trace.Trace) {
	count := func(counts []int64, total *int64, tr *trace.Trace) {
		if tr == nil {
			return
		}
		*total += int64(tr.Len())
		for _, p := range tr.Points {
			hi := p.Lat + a.band
			for j := sort.SearchFloat64s(a.lats, p.Lat-a.band); j < len(a.lats) && a.lats[j] <= hi; j++ {
				qi := a.byLat[j]
				if geo.FastDistance(p.Point, a.queries[qi]) <= a.radius {
					counts[qi]++
				}
			}
		}
	}
	count(a.orig, &a.origTotal, orig)
	count(a.anon, &a.anonTotal, anon)
}

// Merge adds another accumulator's query counts into a. The two must
// have been built with the same parameters.
func (a *RangeQueryAcc) Merge(b *RangeQueryAcc) {
	a.origTotal += b.origTotal
	a.anonTotal += b.anonTotal
	for i := range a.orig {
		a.orig[i] += b.orig[i]
		a.anon[i] += b.anon[i]
	}
}

// Errors returns the per-query relative error of the normalized
// density, exactly as RangeQueryError defines it.
func (a *RangeQueryAcc) Errors() ([]float64, error) {
	if a.origTotal == 0 {
		return nil, errEmptyOriginal
	}
	origTotal := float64(a.origTotal)
	anonTotal := math.Max(float64(a.anonTotal), 1)
	out := make([]float64, len(a.queries))
	for i := range a.queries {
		of := float64(a.orig[i]) / origTotal
		af := float64(a.anon[i]) / anonTotal
		denom := math.Max(of, 1/origTotal) // one original point's worth of density
		out[i] = math.Abs(af-of) / denom
	}
	return out, nil
}

// queryPoints derives the n query centers from the seed, one splitmix64
// stream per query index — the same (seed, key) derivation the
// mechanisms use for per-user randomness, with the query index in the
// key role. Unlike the former bare math/rand seeding, the i-th query
// depends only on (seed, i), never on how many draws preceded it.
func queryPoints(box geo.BBox, n int, seed int64) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		s := uint64(seed)*rng.Gamma ^ rng.Mix(uint64(i)+1)
		out[i] = geo.Point{
			Lat: box.MinLat + unitFloat(rng.Mix(s+rng.Gamma))*(box.MaxLat-box.MinLat),
			Lng: box.MinLng + unitFloat(rng.Mix(s+uint64(rng.Gamma)+uint64(rng.Gamma)))*(box.MaxLng-box.MinLng),
		}
	}
	return out
}

// unitFloat maps 64 random bits to [0, 1) with full 53-bit precision.
func unitFloat(v uint64) float64 { return float64(v>>11) * 0x1p-53 }
