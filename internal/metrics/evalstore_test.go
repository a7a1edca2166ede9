package metrics

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mobipriv/internal/cliutil"
	"mobipriv/internal/geo"
	"mobipriv/internal/risk"
	"mobipriv/internal/store"
	"mobipriv/internal/trace"
)

// quantTrace builds a trace whose coordinates and timestamps round-trip
// the store encoding exactly, so Load()ed and streamed views are
// bit-identical to the in-memory original.
func quantTrace(user string, salt, points, cycle int) *trace.Trace {
	base := time.Date(2025, 6, 1, 8, 0, 0, 0, time.UTC)
	pts := make([]trace.Point, points)
	for i := range pts {
		pts[i] = trace.P(
			float64(457_000_000+200_000*int64(salt%cycle)+41*int64(i))/store.CoordScale,
			float64(48_000_000+100_000*int64(salt%cycle)+23*int64(i))/store.CoordScale,
			base.Add(time.Duration(salt*311+i*52)*time.Second),
		)
	}
	return trace.MustNew(user, pts)
}

// writeFragmented builds a store from the traces via interleaved
// appends so users fragment across blocks.
func writeFragmented(tb testing.TB, traces []*trace.Trace, shards, blockPoints int, name string) *store.Store {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), name)
	w, err := store.Create(dir, store.Options{Shards: shards, BlockPoints: blockPoints})
	if err != nil {
		tb.Fatal(err)
	}
	longest := 0
	for _, tr := range traces {
		if tr.Len() > longest {
			longest = tr.Len()
		}
	}
	for i := 0; i < longest; i++ {
		for _, tr := range traces {
			if i < tr.Len() {
				if err := w.Append(tr.User, tr.Points[i]); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// evalFixture builds two overlapping fragmented stores with different
// shard counts: users e00..e19 in the original, e05..e24 anonymized.
func evalFixture(tb testing.TB) (orig, anon *store.Store) {
	var origTr, anonTr []*trace.Trace
	for u := 0; u < 20; u++ {
		origTr = append(origTr, quantTrace(fmt.Sprintf("e%02d", u), u, 10+u%5, 8))
	}
	for u := 5; u < 25; u++ {
		anonTr = append(anonTr, quantTrace(fmt.Sprintf("e%02d", u), u+3, 8+u%7, 8))
	}
	return writeFragmented(tb, origTr, 3, 3, "orig.mstore"),
		writeFragmented(tb, anonTr, 5, 2, "anon.mstore")
}

// TestEvalStoreEquivalence is the headline pin: the streaming,
// worker-parallel EvalStore reports bit-identical metrics to the
// Load()-based EvalDataset path, across worker counts and on heavily
// fragmented multi-shard inputs with one-sided users — and the same
// under bbox/time filters.
func TestEvalStoreEquivalence(t *testing.T) {
	orig, anon := evalFixture(t)
	opts := EvalOptions{Queries: 24}

	origDS, err := orig.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	anonDS, err := anon.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvalDataset(origDS, anonDS, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Distortion.N == 0 {
		t.Fatal("fixture has no common users — equivalence would be vacuous")
	}

	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := opts
			o.Scan = store.ScanOptions{Workers: workers}
			got, st, err := EvalStore(context.Background(), orig, anon, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("EvalStore differs from Load path:\nwant %+v\ngot  %+v", want, got)
			}
			if st.Paired != 15 || len(st.OnlyOrig) != 5 || len(st.OnlyAnon) != 5 {
				t.Errorf("pair stats = %+v, want 15 paired, 5+5 one-sided", st)
			}
		})
	}

	t.Run("filtered", func(t *testing.T) {
		// A time window cutting into every trace. The grid must be
		// anchored identically on both paths, so pin Bounds explicitly.
		from := time.Date(2025, 6, 1, 8, 30, 0, 0, time.UTC)
		filters := store.ScanOptions{From: from}
		o := opts
		o.Bounds = orig.Bounds()
		o.Scan = filters
		o.Scan.Workers = 4
		got, _, err := EvalStore(context.Background(), orig, anon, o)
		if err != nil {
			t.Fatal(err)
		}
		fo, err := cliutil.FilterDataset(origDS, filters)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := cliutil.FilterDataset(anonDS, filters)
		if err != nil {
			t.Fatal(err)
		}
		bo := opts
		bo.Bounds = orig.Bounds()
		wantF, err := EvalDataset(fo, fa, bo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantF, got) {
			t.Fatalf("filtered EvalStore differs from filtered Load path:\nwant %+v\ngot  %+v", wantF, got)
		}
		if reflect.DeepEqual(want, got) {
			t.Fatal("filter did not change the report — filter test is vacuous")
		}
	})
}

// TestEvalStorePrunes pins that a narrow filter skips whole blocks on
// both sides without reading them.
func TestEvalStorePrunes(t *testing.T) {
	orig, anon := evalFixture(t)
	o := EvalOptions{Queries: 8, Bounds: orig.Bounds()}
	o.Scan = store.ScanOptions{Users: []string{"e07"}}
	_, st, err := EvalStore(context.Background(), orig, anon, o)
	if err != nil {
		t.Fatal(err)
	}
	if st.Paired != 1 {
		t.Errorf("Paired = %d, want 1", st.Paired)
	}
	if st.Orig.BlocksPruned == 0 || st.Anon.BlocksPruned == 0 {
		t.Errorf("no pruning recorded: orig %+v anon %+v", st.Orig, st.Anon)
	}
}

// benchEvalStores builds the benchmark fixture: geography cycles with
// a fixed period so the grid-cell state stays bounded while the user
// count scales.
func benchEvalStores(b *testing.B, users, pointsEach int) (*store.Store, *store.Store) {
	var origTr, anonTr []*trace.Trace
	for u := 0; u < users; u++ {
		origTr = append(origTr, quantTrace(fmt.Sprintf("b%04d", u), u, pointsEach, 12))
		anonTr = append(anonTr, quantTrace(fmt.Sprintf("b%04d", u), u+7, pointsEach, 12))
	}
	return writeFragmented(b, origTr, 4, 1024, "orig.mstore"),
		writeFragmented(b, anonTr, 6, 1024, "anon.mstore")
}

var benchOpts = EvalOptions{Queries: 16}

// BenchmarkEvalStore measures the streaming evaluation path end to end
// in points/s, with B/op and allocs/op as its allocation witness.
// "utility" runs the utility metrics alone; "attack" adds the POI
// attack with mobieval -stays's options (-cell 500 -queries 100 -seed
// 1, the default attack configuration), the whole of what the
// store-eval workload runs. Its ground truth is each original trace's
// first point.
func BenchmarkEvalStore(b *testing.B) {
	const users, pointsEach = 48, 400
	orig, anon := benchEvalStores(b, users, pointsEach)
	truth := make(map[string][]geo.Point, users)
	for u := 0; u < users; u++ {
		tr := quantTrace(fmt.Sprintf("b%04d", u), u, pointsEach, 12)
		truth[tr.User] = []geo.Point{tr.Points[0].Point}
	}
	attack := EvalOptions{CellSize: 500, Queries: 100, Seed: 1}
	attack.Attack = &AttackOptions{Truth: truth, Config: risk.DefaultAttackConfig()}
	for _, c := range []struct {
		name string
		opts EvalOptions
	}{{"utility", benchOpts}, {"attack", attack}} {
		b.Run(c.name, func(b *testing.B) {
			o := c.opts
			o.Scan = store.ScanOptions{Workers: runtime.NumCPU()}
			b.ReportAllocs()
			var points int64
			for b.Loop() {
				r, _, err := EvalStore(context.Background(), orig, anon, o)
				if err != nil {
					b.Fatal(err)
				}
				points += r.OrigPoints + r.AnonPoints
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkEvalLoad is the batch baseline: Load both stores, then
// evaluate in memory. Same report, different memory story.
func BenchmarkEvalLoad(b *testing.B) {
	orig, anon := benchEvalStores(b, 48, 400)
	b.ReportAllocs()
	b.ResetTimer()
	var points int64
	for i := 0; i < b.N; i++ {
		od, err := orig.Load(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		ad, err := anon.Load(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		r, err := EvalDataset(od, ad, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		points += r.OrigPoints + r.AnonPoints
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkEvalStoreMemory is the flat-memory proof for the acceptance
// criterion: at 10× the dataset (10× the users) the sampled peak heap
// stays flat — bounded by the scanning goroutines' in-flight traces
// plus the accumulator state (grid cells are bounded by geography, the
// length accumulator is 16 bytes per user) — instead of scaling with
// the stores, while the Load path would hold both datasets. The
// peak-heap-KB metric makes the comparison visible; the scale=1 and
// scale=10 lines should agree up to GC noise. (A GC runs before each
// sampled region so leftover fixture garbage cannot masquerade as
// working set.)
func BenchmarkEvalStoreMemory(b *testing.B) {
	const workers, pointsEach = 4, 400
	for _, scale := range []int{1, 10} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			orig, anon := benchEvalStores(b, 60*scale, pointsEach)
			o := benchOpts
			o.Scan = store.ScanOptions{Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			var peakHeap uint64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				stop := make(chan struct{})
				done := make(chan struct{})
				var localPeak atomic.Uint64
				go func() {
					defer close(done)
					var ms runtime.MemStats
					for {
						select {
						case <-stop:
							return
						default:
						}
						runtime.ReadMemStats(&ms)
						if ms.HeapAlloc > localPeak.Load() {
							localPeak.Store(ms.HeapAlloc)
						}
						time.Sleep(time.Millisecond)
					}
				}()
				if _, _, err := EvalStore(context.Background(), orig, anon, o); err != nil {
					b.Fatal(err)
				}
				close(stop)
				<-done
				if localPeak.Load() > peakHeap {
					peakHeap = localPeak.Load()
				}
			}
			b.ReportMetric(float64(peakHeap)/1024, "peak-heap-KB")
		})
	}
}
