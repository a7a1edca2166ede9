package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if got := Quantile([]float64{42}, 0.7); got != 42 {
		t.Errorf("Quantile singleton = %v, want 42", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile must not sort its input in place")
	}
}

func TestSummarize(t *testing.T) {
	if got := Summarize(nil); got.N != 0 {
		t.Fatalf("empty Summarize = %+v", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 || s.Median != 50 || s.Mean != 50 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P25 != 25 || s.P75 != 75 || s.P95 != 95 || s.P99 != 99 {
		t.Errorf("quantiles = %+v", s)
	}
}

func TestKendallTau(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := KendallTau(xs, []float64{10, 20, 30, 40}); got != 1 {
		t.Errorf("tau same order = %v", got)
	}
	if got := KendallTau(xs, []float64{40, 30, 20, 10}); got != -1 {
		t.Errorf("tau reversed = %v", got)
	}
	if got := KendallTau(xs, xs[:2]); got != 0 {
		t.Errorf("tau mismatch = %v", got)
	}
	// One swap out of 6 pairs: tau = (5-1)/6.
	if got := KendallTau(xs, []float64{2, 1, 3, 4}); !almostEq(got, 4.0/6.0, 1e-12) {
		t.Errorf("tau one swap = %v", got)
	}
}

// Property: quantile output is within [min, max] and monotone in q.
func TestQuantileProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if math.IsNaN(q1) || math.IsNaN(q2) {
			return true
		}
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, v2 := Quantile(raw, q1), Quantile(raw, q2)
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		return v1 <= v2+1e-9 && v1 >= sorted[0]-1e-9 && v2 <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
