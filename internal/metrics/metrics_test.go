package metrics

import (
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

func TestTraceDistortionZeroForIdentity(t *testing.T) {
	tr := eastTrace("u", 20, 100, 0)
	ds, err := TraceDistortion(tr, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if d > 0.01 {
			t.Fatalf("self distortion[%d] = %v", i, d)
		}
	}
}

func TestTraceDistortionKnownOffset(t *testing.T) {
	orig := eastTrace("u", 20, 100, 0)
	shifted := eastTrace("u", 20, 100, 150) // parallel path 150 m north
	ds, err := TraceDistortion(orig, shifted)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if math.Abs(d-150) > 2 {
			t.Fatalf("distortion[%d] = %v, want ~150", i, d)
		}
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
	ds, err := TraceDistortion(orig, warped)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(ds) > 0.01 {
		t.Fatalf("time warping should not register as spatial distortion, max=%v", slices.Max(ds))
	}
}

func TestCompletenessDistortionDetectsTrimming(t *testing.T) {
	orig := eastTrace("u", 30, 100, 0) // 2.9 km path
	// Published: only the middle third.
	mid := trace.MustNew("u", append([]trace.Point(nil), orig.Points[10:20]...))
	ds, err := CompletenessDistortion(orig, mid)
	if err != nil {
		t.Fatal(err)
	}
	// The first original point is 1000 m from the published path start.
	if ds[0] < 900 {
		t.Fatalf("completeness[0] = %v, want ~1000", ds[0])
	}
	// Middle points are covered.
	if ds[15] > 1 {
		t.Fatalf("completeness[15] = %v, want ~0", ds[15])
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
	ds, err := DatasetDistortion(orig, anon)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 20 {
		t.Fatalf("pooled %d samples, want 20", len(ds))
	}
	med := stats.Median(ds)
	if med < 40 || med > 110 {
		t.Fatalf("median distortion = %v", med)
	}
}

func TestDatasetDistortionNoCommonUsers(t *testing.T) {
	orig := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 5, 100, 0)})
	anon := trace.MustNewDataset([]*trace.Trace{eastTrace("x", 5, 100, 0)})
	if _, err := DatasetDistortion(orig, anon); err == nil {
		t.Fatal("expected ErrNoCommonUsers")
	}
}

func TestCoveragePerfect(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 20, 100, 0)})
	res, err := Coverage(d, d, 200)
	if err != nil {
		t.Fatal(err)
	}
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
	res, err := Coverage(orig, far, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.F1 != 0 {
		t.Fatalf("disjoint coverage F1 = %v, want 0", res.F1)
	}
	// Coarser cells than the displacement: everything matches again.
	res, err = Coverage(orig, far, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if res.F1 != 1 {
		t.Fatalf("coarse coverage F1 = %v, want 1", res.F1)
	}
}

func TestCoverageValidation(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 5, 100, 0)})
	if _, err := Coverage(d, d, 0); err == nil {
		t.Fatal("cell size 0 accepted")
	}
}

func TestTripLengths(t *testing.T) {
	orig := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 11, 100, 0), // 1000 m
		eastTrace("b", 21, 100, 500),
	})
	same, err := TripLengths(orig, orig)
	if err != nil {
		t.Fatal(err)
	}
	if same.MeanRelError > 1e-9 || same.DecileError > 1e-9 {
		t.Fatalf("self comparison: %+v", same)
	}
	// Halved lengths.
	anon := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 6, 100, 0), // 500 m
		eastTrace("b", 11, 100, 500),
	})
	halved, err := TripLengths(orig, anon)
	if err != nil {
		t.Fatal(err)
	}
	if halved.MeanRelError < 0.4 || halved.MeanRelError > 0.6 {
		t.Fatalf("MeanRelError = %v, want ~0.5", halved.MeanRelError)
	}
}

func TestODFlows(t *testing.T) {
	orig := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 20, 100, 0),
		eastTrace("b", 20, 100, 100),
	})
	res, err := ODFlows(orig, orig, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1 {
		t.Fatalf("self OD accuracy = %v", res.Accuracy)
	}
	// A dataset heading the other way has entirely different OD pairs.
	rev := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 20, -100, 0),
		eastTrace("b", 20, -100, 100),
	})
	res, err = ODFlows(orig, rev, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 0 {
		t.Fatalf("reversed OD accuracy = %v, want 0", res.Accuracy)
	}
}

func TestPopularCellsTau(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 30, 100, 0),
		eastTrace("b", 30, 100, 50),
		eastTrace("c", 15, 100, 25),
	})
	tau, err := PopularCellsTau(d, d, 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tau != 1 {
		t.Fatalf("self tau = %v, want 1", tau)
	}
	if _, err := PopularCellsTau(d, d, 0, 5); err == nil {
		t.Fatal("bad cell size accepted")
	}
	if _, err := PopularCellsTau(d, d, 500, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestRangeQueryError(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 30, 100, 0),
		eastTrace("b", 30, 100, 200),
	})
	errsSelf, err := RangeQueryError(d, d, 50, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(errsSelf) != 0 {
		t.Fatalf("self query error max = %v", slices.Max(errsSelf))
	}
	// Against an empty-ish (displaced) dataset errors are large.
	far := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 30, 100, 50000)})
	errsFar, err := RangeQueryError(d, far, 50, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mean(errsFar) <= stats.Mean(errsSelf) {
		t.Fatal("displaced dataset should have higher query error")
	}
	if _, err := RangeQueryError(d, d, 0, 500, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := RangeQueryError(d, d, 10, -5, 1); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestRangeQueryDeterministic(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{eastTrace("a", 30, 100, 0)})
	e1, err := RangeQueryError(d, d, 20, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := RangeQueryError(d, d, 20, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("same seed must give same queries")
		}
	}
}
