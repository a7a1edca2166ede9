package metrics

import (
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/stats"
	"mobipriv/internal/trace"
)

var (
	t0     = time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	origin = geo.Point{Lat: 45.7640, Lng: 4.8357}
)

func eastTrace(user string, n int, spacing float64, dy float64) *trace.Trace {
	pts := make([]trace.Point, n)
	for i := range pts {
		pts[i] = trace.Point{
			Point: geo.Offset(origin, float64(i)*spacing, dy),
			Time:  t0.Add(time.Duration(i) * time.Minute),
		}
	}
	return trace.MustNew(user, pts)
}

// distortion pools one pair through a fresh accumulator of the given
// direction.
func distortion(t *testing.T, acc *DistortionAcc, orig, anon *trace.Trace) DistSummary {
	t.Helper()
	if err := acc.AddPair(orig, anon); err != nil {
		t.Fatal(err)
	}
	return acc.Summary()
}

// feed runs FeedPairs over an accumulator whose AddPair cannot fail.
func feed(t *testing.T, orig, anon *trace.Dataset, add func(o, a *trace.Trace)) {
	t.Helper()
	if err := FeedPairs(orig, anon, func(o, a *trace.Trace) error { add(o, a); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestTraceDistortionZeroForIdentity(t *testing.T) {
	tr := eastTrace("u", 20, 100, 0)
	s := distortion(t, NewDistortionAcc(), tr, tr)
	if s.N != 20 || s.Max > 0.01 {
		t.Fatalf("self distortion %+v, want 20 samples of at most 0.01", s)
	}
}

func TestTraceDistortionKnownOffset(t *testing.T) {
	orig := eastTrace("u", 20, 100, 0)
	shifted := eastTrace("u", 20, 100, 150) // parallel path 150 m north
	s := distortion(t, NewDistortionAcc(), orig, shifted)
	if s.N != 20 || math.Abs(s.Min-150) > 2 || math.Abs(s.Max-150) > 2 {
		t.Fatalf("distortion %+v, want 20 samples of ~150", s)
	}
}

func TestTraceDistortionIgnoresTime(t *testing.T) {
	orig := eastTrace("u", 20, 100, 0)
	// Same geometry, totally different timestamps.
	pts := make([]trace.Point, orig.Len())
	for i, p := range orig.Points {
		pts[i] = trace.Point{Point: p.Point, Time: t0.Add(time.Duration(i) * 7 * time.Hour)}
	}
	warped := trace.MustNew("u", pts)
	if s := distortion(t, NewDistortionAcc(), orig, warped); s.Max > 0.01 {
		t.Fatalf("time warping should not register as spatial distortion, max=%v", s.Max)
	}
}

func TestCompletenessDistortionDetectsTrimming(t *testing.T) {
	orig := eastTrace("u", 30, 100, 0) // 2.9 km path
	// Published: only the middle third.
	mid := trace.MustNew("u", append([]trace.Point(nil), orig.Points[10:20]...))
	// completeness(i) is original point i's distance to the published
	// path: a one-point original trace pools exactly that sample.
	completeness := func(i int) float64 {
		probe := trace.MustNew("u", orig.Points[i:i+1])
		return distortion(t, NewCompletenessAcc(), probe, mid).Max
	}
	// The first original point is 1000 m from the published path start.
	if d := completeness(0); d < 900 {
		t.Fatalf("completeness[0] = %v, want ~1000", d)
	}
	// Middle points are covered.
	if d := completeness(15); d > 1 {
		t.Fatalf("completeness[15] = %v, want ~0", d)
	}
	if s := distortion(t, NewCompletenessAcc(), orig, mid); s.N != 30 {
		t.Fatalf("completeness pooled %d samples, want one per original point (30)", s.N)
	}
}

func TestDatasetDistortion(t *testing.T) {
	orig := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 10, 100, 0),
		eastTrace("b", 10, 100, 1000),
	})
	anon := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 10, 100, 50),   // 50 m off
		eastTrace("b", 10, 100, 1100), // 100 m off
	})
	r, err := EvalDataset(orig, anon, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Distortion.N != 20 {
		t.Fatalf("pooled %d samples, want 20", r.Distortion.N)
	}
	if med := r.Distortion.P50; med < 40 || med > 110 {
		t.Fatalf("median distortion = %v", med)
	}
}

func TestDatasetDistortionNoCommonUsers(t *testing.T) {
	orig := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 5, 100, 0)})
	anon := trace.MustNewDataset([]*trace.Trace{eastTrace("x", 5, 100, 0)})
	r, err := EvalDataset(orig, anon, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Distortion.N != 0 || r.Completeness.N != 0 {
		t.Fatalf("disjoint users pooled distortion %+v, completeness %+v; want none", r.Distortion, r.Completeness)
	}
}

// TestFeedPairs pins the paired-scan order FeedPairs drives: every
// original user with its published trace or nil, then the published-only
// users, stopping at the first error.
func TestFeedPairs(t *testing.T) {
	orig := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 5, 100, 0), eastTrace("b", 5, 100, 0)})
	anon := trace.MustNewDataset([]*trace.Trace{eastTrace("b", 5, 100, 0), eastTrace("c", 5, 100, 0)})
	name := func(tr *trace.Trace) string {
		if tr == nil {
			return "-"
		}
		return tr.User
	}
	var got []string
	if err := FeedPairs(orig, anon, func(o, a *trace.Trace) error {
		got = append(got, name(o)+name(a))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a-", "bb", "-c"}; !slices.Equal(got, want) {
		t.Fatalf("pairs %v, want %v", got, want)
	}
	stop := errors.New("stop")
	calls := 0
	if err := FeedPairs(orig, anon, func(o, a *trace.Trace) error { calls++; return stop }); !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("FeedPairs = %v after %d calls, want the first error after 1", err, calls)
	}
}

// coverage compares the visited cells of two datasets on a grid
// anchored at the original's bounding box.
func coverage(t *testing.T, orig, anon *trace.Dataset, cellSize float64) CoverageResult {
	t.Helper()
	acc, err := NewCellAcc(orig.Bounds().Center(), cellSize)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, orig, anon, acc.AddPair)
	return acc.Coverage()
}

func TestCoveragePerfect(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 20, 100, 0)})
	res := coverage(t, d, d, 200)
	if res.F1 != 1 || res.Precision != 1 || res.Recall != 1 {
		t.Fatalf("self coverage = %+v", res)
	}
	if res.OrigCells == 0 {
		t.Fatal("no cells visited")
	}
}

func TestCoverageDisplacedData(t *testing.T) {
	orig := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 20, 100, 0)})
	far := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 20, 100, 5000)})
	if res := coverage(t, orig, far, 200); res.F1 != 0 {
		t.Fatalf("disjoint coverage F1 = %v, want 0", res.F1)
	}
	// Coarser cells than the displacement: everything matches again.
	if res := coverage(t, orig, far, 50000); res.F1 != 1 {
		t.Fatalf("coarse coverage F1 = %v, want 1", res.F1)
	}
}

func TestCoverageValidation(t *testing.T) {
	if _, err := NewCellAcc(origin, 0); err == nil {
		t.Fatal("cell size 0 accepted")
	}
}

func TestTripLengths(t *testing.T) {
	lengths := func(orig, anon *trace.Dataset) LengthStats {
		acc := NewLengthAcc()
		feed(t, orig, anon, acc.AddPair)
		ls, err := acc.Result()
		if err != nil {
			t.Fatal(err)
		}
		return ls
	}
	orig := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 11, 100, 0), // 1000 m
		eastTrace("b", 21, 100, 500),
	})
	if same := lengths(orig, orig); same.MeanRelError > 1e-9 || same.DecileError > 1e-9 {
		t.Fatalf("self comparison: %+v", same)
	}
	// Halved lengths.
	anon := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 6, 100, 0), // 500 m
		eastTrace("b", 11, 100, 500),
	})
	if halved := lengths(orig, anon); halved.MeanRelError < 0.4 || halved.MeanRelError > 0.6 {
		t.Fatalf("MeanRelError = %v, want ~0.5", halved.MeanRelError)
	}
}

func TestODFlows(t *testing.T) {
	flows := func(orig, anon *trace.Dataset) ODResult {
		acc, err := NewODAcc(orig.Bounds().Center(), 500)
		if err != nil {
			t.Fatal(err)
		}
		feed(t, orig, anon, acc.AddPair)
		res, err := acc.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	orig := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 20, 100, 0),
		eastTrace("b", 20, 100, 100),
	})
	if res := flows(orig, orig); res.Accuracy != 1 {
		t.Fatalf("self OD accuracy = %v", res.Accuracy)
	}
	// A dataset heading the other way has entirely different OD pairs.
	rev := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 20, -100, 0),
		eastTrace("b", 20, -100, 100),
	})
	if res := flows(orig, rev); res.Accuracy != 0 {
		t.Fatalf("reversed OD accuracy = %v, want 0", res.Accuracy)
	}
}

func TestPopularCellsTau(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 30, 100, 0),
		eastTrace("b", 30, 100, 50),
		eastTrace("c", 15, 100, 25),
	})
	acc, err := NewCellAcc(d.Bounds().Center(), 500)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, d, acc.AddPair)
	tau, err := acc.PopularTau(5)
	if err != nil {
		t.Fatal(err)
	}
	if tau != 1 {
		t.Fatalf("self tau = %v, want 1", tau)
	}
	if _, err := NewCellAcc(d.Bounds().Center(), 0); err == nil {
		t.Fatal("bad cell size accepted")
	}
	if _, err := NewEvalAcc(EvalOptions{Bounds: d.Bounds(), TopCells: 1}); err == nil {
		t.Fatal("n=1 accepted")
	}
}

// rangeQueryErrors runs n seeded disc-counting queries over the
// original's bounding box against both datasets.
func rangeQueryErrors(t *testing.T, orig, anon *trace.Dataset, n int, radius float64, seed int64) []float64 {
	t.Helper()
	acc, err := NewRangeQueryAcc(orig.Bounds(), n, radius, seed)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, orig, anon, acc.AddPair)
	errs, err := acc.Errors()
	if err != nil {
		t.Fatal(err)
	}
	return errs
}

func TestRangeQueryError(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 30, 100, 0),
		eastTrace("b", 30, 100, 200),
	})
	errsSelf := rangeQueryErrors(t, d, d, 50, 500, 1)
	if slices.Max(errsSelf) != 0 {
		t.Fatalf("self query error max = %v", slices.Max(errsSelf))
	}
	// Against an empty-ish (displaced) dataset errors are large.
	far := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 30, 100, 50000)})
	errsFar := rangeQueryErrors(t, d, far, 50, 500, 1)
	if stats.Mean(errsFar) <= stats.Mean(errsSelf) {
		t.Fatal("displaced dataset should have higher query error")
	}
	if _, err := NewRangeQueryAcc(d.Bounds(), 0, 500, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewRangeQueryAcc(d.Bounds(), 10, -5, 1); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestRangeQueryDeterministic(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 30, 100, 0)})
	e1 := rangeQueryErrors(t, d, d, 20, 300, 9)
	e2 := rangeQueryErrors(t, d, d, 20, 300, 9)
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("same seed must give same queries")
		}
	}
}
