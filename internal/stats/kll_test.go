package stats

import (
	"math"
	"sort"
	"testing"

	"mobipriv/internal/rng"
)

// kllValues derives a deterministic pseudo-random sample.
func kllValues(n int, seed uint64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(rng.Mix(seed+uint64(i)*rng.Gamma)>>11) * 0x1p-53 * 1000
	}
	return out
}

// TestKLLExactRegime pins the headline contract: while n <= K the
// sketch returns exact lower order statistics, bit-identical to
// sorting the sample.
func TestKLLExactRegime(t *testing.T) {
	vals := kllValues(100, 7)
	s := NewKLL(256)
	for _, v := range vals {
		s.Add(v)
	}
	if !s.Exact() {
		t.Fatalf("n=%d k=%d should be exact", s.n, s.k)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		want := sorted[int(q*float64(len(sorted)-1))]
		if got := s.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %v, want exact %v", q, got, want)
		}
	}
}

// TestKLLOrderInvarianceExact pins merge-order invariance in the exact
// regime: any partition of the sample over any number of sketches,
// merged in any order, yields bit-identical quantiles.
func TestKLLOrderInvarianceExact(t *testing.T) {
	vals := kllValues(200, 3)
	ref := NewKLL(256)
	for _, v := range vals {
		ref.Add(v)
	}

	// Partition into 3 sketches round-robin, merge in reversed order,
	// and feed one partition in reverse to vary intra-sketch order too.
	parts := make([]*KLL, 3)
	for i := range parts {
		parts[i] = NewKLL(256)
	}
	for i, v := range vals {
		if i%3 == 1 {
			continue
		}
		parts[i%3].Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		if i%3 == 1 {
			parts[1].Add(vals[i])
		}
	}
	merged := NewKLL(256)
	for i := len(parts) - 1; i >= 0; i-- {
		merged.Merge(parts[i])
	}
	if !merged.Exact() || merged.n != ref.n {
		t.Fatalf("merged: exact=%v n=%d, want exact n=%d", merged.Exact(), merged.n, ref.n)
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if a, b := ref.Quantile(q), merged.Quantile(q); a != b {
			t.Fatalf("Quantile(%v): sequential %v != partitioned %v", q, a, b)
		}
	}
}

// TestKLLDeterministicBeyondCapacity pins that compaction is canonical:
// the same stream always produces the identical sketch, and quantile
// rank error stays small on a smooth sample.
func TestKLLDeterministicBeyondCapacity(t *testing.T) {
	vals := kllValues(10000, 11)
	a, b := NewKLL(64), NewKLL(64)
	for _, v := range vals {
		a.Add(v)
		b.Add(v)
	}
	if a.Exact() {
		t.Fatal("10000 items in a K=64 sketch cannot be exact")
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if qa, qb := a.Quantile(q), b.Quantile(q); qa != qb {
			t.Fatalf("same stream diverged at q=%v: %v vs %v", q, qa, qb)
		}
	}

	// Rank-error bound: the returned value's true rank should be within
	// a few percent of the requested rank (deterministic compaction is
	// biased but bounded).
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := a.Quantile(q)
		rank := 0
		for rank < len(sorted) && sorted[rank] < got {
			rank++
		}
		if err := math.Abs(float64(rank)/float64(len(sorted)) - q); err > 0.10 {
			t.Errorf("q=%v: value %v has true rank %.3f (error %.3f > 0.10)", q, got, float64(rank)/float64(len(sorted)), err)
		}
	}
}

// TestKLLMergeBeyondCapacity sanity-checks that merging compacted
// sketches still bounds rank error and conserves the count.
func TestKLLMergeBeyondCapacity(t *testing.T) {
	vals := kllValues(8000, 23)
	parts := make([]*KLL, 4)
	for i := range parts {
		parts[i] = NewKLL(64)
	}
	for i, v := range vals {
		parts[i%4].Add(v)
	}
	m := NewKLL(64)
	for _, p := range parts {
		m.Merge(p)
	}
	if m.n != uint64(len(vals)) {
		t.Fatalf("count %d, want %d", m.n, len(vals))
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.25, 0.5, 0.75} {
		got := m.Quantile(q)
		rank := 0
		for rank < len(sorted) && sorted[rank] < got {
			rank++
		}
		if err := math.Abs(float64(rank)/float64(len(sorted)) - q); err > 0.15 {
			t.Errorf("q=%v: true rank %.3f (error %.3f > 0.15)", q, float64(rank)/float64(len(sorted)), err)
		}
	}
}

// TestKLLEdgeCases covers the empty sketch, NaN, and tiny capacities.
func TestKLLEdgeCases(t *testing.T) {
	s := NewKLL(0) // raised to 2
	if s.k != 2 {
		t.Fatalf("K = %d, want 2", s.k)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	s.Add(math.NaN())
	if s.n != 0 {
		t.Fatal("NaN must be ignored")
	}
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	if s.Exact() {
		t.Fatal("100 items in K=2 cannot be exact")
	}
	if q := s.Quantile(0.5); q < 10 || q > 90 {
		t.Fatalf("K=2 median %v wildly off", q)
	}
	s.Merge(nil) // must not panic
}
