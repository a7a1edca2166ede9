package obs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobipriv/internal/stats"
)

// TestCounterGaugeBasics pins the elementary instrument semantics.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := 2.5
	r.GaugeFunc("g", "a gauge", func() float64 { return g })
	if got, _ := r.Value("g"); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g = 1.5
	if got, _ := r.Value("g"); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5 (read at scrape time)", got)
	}
}

// TestRegistryIdempotent pins that re-registering the same series
// returns the same instrument, and that conflicting reuse panics.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("k", "v"))
	b := r.Counter("x_total", "help", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	if c := r.Counter("x_total", "help", L("k", "w")); c == a {
		t.Fatal("different label value returned same counter")
	}
	mustPanic(t, "kind conflict", func() { r.GaugeFunc("x_total", "help", func() float64 { return 0 }) })
	mustPanic(t, "help conflict", func() { r.Counter("x_total", "other help") })
	mustPanic(t, "bad name", func() { r.Counter("9bad", "help") })
	mustPanic(t, "bad label", func() { r.Counter("ok_total", "help", L("bad-label", "v")) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestRegistryValue pins the /stats-as-a-view contract: Value reads
// the same state the exposition writes, including callback metrics.
func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h").Add(7)
	r.GaugeFunc("g", "h", func() float64 { return 3 }, L("shard", "0"))
	n := 41.0
	r.CounterFunc("fn_total", "h", func() float64 { return n })

	if v, ok := r.Value("c_total"); !ok || v != 7 {
		t.Fatalf("Value(c_total) = %v, %v", v, ok)
	}
	if v, ok := r.Value("g", L("shard", "0")); !ok || v != 3 {
		t.Fatalf("Value(g{shard=0}) = %v, %v", v, ok)
	}
	if v, ok := r.Value("fn_total"); !ok || v != 41 {
		t.Fatalf("Value(fn_total) = %v, %v", v, ok)
	}
	n = 42
	if v, _ := r.Value("fn_total"); v != 42 {
		t.Fatalf("callback not re-read: %v", v)
	}
	if _, ok := r.Value("absent"); ok {
		t.Fatal("Value on absent series reported ok")
	}
	if _, ok := r.Value("g", L("shard", "9")); ok {
		t.Fatal("Value on absent labels reported ok")
	}
}

// TestHistogramMergeOrderInvariance pins the accumulator contract the
// package doc promises: any partition of the observations over any
// number of histograms, merged in any order, yields identical state.
func TestHistogramMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	obs := make([]time.Duration, 5000)
	for i := range obs {
		obs[i] = time.Duration(rng.ExpFloat64() * float64(time.Millisecond)) // ~ms-scale latencies
	}

	whole := NewHistogram()
	for _, v := range obs {
		whole.ObserveDuration(v)
	}

	// Partition into 7 parts round-robin, merge in a shuffled order.
	parts := make([]*Histogram, 7)
	for i := range parts {
		parts[i] = NewHistogram()
	}
	for i, v := range obs {
		parts[i%len(parts)].ObserveDuration(v)
	}
	order := rng.Perm(len(parts))
	merged := NewHistogram()
	for _, i := range order {
		merged.Merge(parts[i])
	}

	if whole.Count() != merged.Count() {
		t.Fatalf("count: whole %d, merged %d", whole.Count(), merged.Count())
	}
	if whole.sumNs.Load() != merged.sumNs.Load() {
		t.Fatalf("sumNs: whole %d, merged %d", whole.sumNs.Load(), merged.sumNs.Load())
	}
	for i := range whole.bins {
		if a, b := whole.bins[i].Load(), merged.bins[i].Load(); a != b {
			t.Fatalf("bin %d: whole %d, merged %d", i, a, b)
		}
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if a, b := whole.Quantile(q), merged.Quantile(q); a != b {
			t.Fatalf("quantile %v: whole %v, merged %v", q, a, b)
		}
	}
}

// TestHistogramQuantile sanity-checks quantiles against a known
// distribution within the documented ~4.5% bucket resolution.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	// 1..1000 microseconds.
	for i := 1; i <= 1000; i++ {
		h.ObserveDuration(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 400e-6 || p50 > 550e-6 {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900e-6 || p99 > 1100e-6 {
		t.Fatalf("p99 = %v, want ~990µs", p99)
	}
	wantSum := float64(1000*1001/2) * 1e-6
	if got := h.Sum(); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
}

// TestHistogramObserveClamps pins the edge handling for hostile inputs:
// negative durations land in the zero bin, and the largest duration
// lands in the top bin without panicking.
func TestHistogramObserveClamps(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(-1)
	h.ObserveDuration(0)
	h.ObserveDuration(-time.Second)
	if h.Count() != 3 || h.sumNs.Load() != 0 {
		t.Fatalf("count=%d sumNs=%d after clamped observations", h.Count(), h.sumNs.Load())
	}
	if h.bins[0].Load() != 3 {
		t.Fatalf("zero bin = %d, want 3", h.bins[0].Load())
	}
	h.ObserveDuration(math.MaxInt64)
	if h.Count() != 4 || h.bins[stats.LogBin(math.MaxInt64)].Load() != 1 {
		t.Fatalf("count = %d after max-duration observe", h.Count())
	}
}

// TestConcurrentInstruments exercises every instrument from many
// goroutines; run under -race this is the package's race test.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	var depth atomic.Int64
	r.GaugeFunc("g", "h", func() float64 { return float64(depth.Load()) })
	h := r.Histogram("h_seconds", "h")

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				depth.Add(1)
				h.ObserveDuration(time.Duration(i) * time.Microsecond)
				// Concurrent registration of the same series must be safe.
				r.Counter("c_total", "h").Add(0)
				if i%500 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got, _ := r.Value("g"); got != workers*iters {
		t.Fatalf("gauge = %v, want %d", got, workers*iters)
	}
	if got := h.Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}
