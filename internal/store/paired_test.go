package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"mobipriv/internal/trace"
)

// pairResult is everything one ScanTracesPaired run delivered.
type pairResult struct {
	pairs map[string][2]*trace.Trace // user -> (orig, anon); nil side for one-sided
	stats *PairScanStats
}

// collectPairs drains a paired scan, failing on duplicate deliveries.
func collectPairs(t *testing.T, orig, anon *Store, opts ScanOptions) pairResult {
	t.Helper()
	var mu sync.Mutex
	pairs := make(map[string][2]*trace.Trace)
	st, err := ScanTracesPaired(context.Background(), orig, anon, opts, func(o, a *trace.Trace) error {
		user := ""
		if o != nil {
			user = o.User
		} else {
			user = a.User
		}
		mu.Lock()
		defer mu.Unlock()
		if _, dup := pairs[user]; dup {
			return fmt.Errorf("user %q delivered twice", user)
		}
		pairs[user] = [2]*trace.Trace{o, a}
		return nil
	})
	if err != nil {
		t.Fatalf("ScanTracesPaired: %v", err)
	}
	return pairResult{pairs: pairs, stats: st}
}

// quantizedTrace builds a trace whose coordinates and timestamps
// round-trip the store encoding exactly.
func quantizedTrace(user string, seed, points int) *trace.Trace {
	base := time.Date(2025, 6, 1, 8, 0, 0, 0, time.UTC)
	pts := make([]trace.Point, points)
	for i := range pts {
		pts[i] = trace.P(
			float64(450_000_000+100_000*seed+37*i)/CoordScale,
			float64(48_000_000+13*i)/CoordScale,
			base.Add(time.Duration(seed*17+i*45)*time.Second),
		)
	}
	return trace.MustNew(user, pts)
}

// buildFragmented writes the traces into a new store via interleaved
// Appends so every user fragments across several blocks.
func buildFragmented(t testing.TB, traces []*trace.Trace, shards, blockPoints int) *Store {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "paired.mstore")
	w, err := Create(dir, Options{Shards: shards, BlockPoints: blockPoints})
	if err != nil {
		t.Fatal(err)
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
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func sameTrace(t *testing.T, want, got *trace.Trace) {
	t.Helper()
	if got == nil {
		t.Fatalf("user %s: missing trace", want.User)
	}
	if want.User != got.User || want.Len() != got.Len() {
		t.Fatalf("trace mismatch: want %v, got %v", want, got)
	}
	for i := range want.Points {
		w, g := want.Points[i], got.Points[i]
		if !w.Time.Equal(g.Time) || w.Lat != g.Lat || w.Lng != g.Lng {
			t.Fatalf("user %s point %d: want %v, got %v", want.User, i, w, g)
		}
	}
}

// TestScanTracesPairedIntersection pins the alignment property on
// stores with different shard counts and overlapping user populations:
// exactly the user intersection is paired, the symmetric difference is
// reported one-sided, and every delivered trace is assembled exactly as
// a single-store scan would.
func TestScanTracesPairedIntersection(t *testing.T) {
	var origTr, anonTr []*trace.Trace
	for u := 0; u < 12; u++ { // orig: u00..u11
		origTr = append(origTr, quantizedTrace(fmt.Sprintf("u%02d", u), u, 7))
	}
	for u := 4; u < 16; u++ { // anon: u04..u15, shifted geometry
		anonTr = append(anonTr, quantizedTrace(fmt.Sprintf("u%02d", u), u+100, 5))
	}
	orig := buildFragmented(t, origTr, 3, 2)
	anon := buildFragmented(t, anonTr, 5, 2)
	origSet := trace.MustNewDataset(origTr)
	anonSet := trace.MustNewDataset(anonTr)

	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			res := collectPairs(t, orig, anon, ScanOptions{Workers: workers})
			if got, want := res.stats.Paired, int64(8); got != want { // u04..u11
				t.Errorf("Paired = %d, want %d", got, want)
			}
			wantOnlyOrig := []string{"u00", "u01", "u02", "u03"}
			wantOnlyAnon := []string{"u12", "u13", "u14", "u15"}
			if !equalStrings(res.stats.OnlyOrig, wantOnlyOrig) {
				t.Errorf("OnlyOrig = %v, want %v", res.stats.OnlyOrig, wantOnlyOrig)
			}
			if !equalStrings(res.stats.OnlyAnon, wantOnlyAnon) {
				t.Errorf("OnlyAnon = %v, want %v", res.stats.OnlyAnon, wantOnlyAnon)
			}
			if len(res.pairs) != 16 {
				t.Fatalf("delivered %d users, want 16", len(res.pairs))
			}
			for user, pair := range res.pairs {
				if wt := origSet.ByUser(user); wt != nil {
					sameTrace(t, wt, pair[0])
				} else if pair[0] != nil {
					t.Errorf("user %s: unexpected orig side", user)
				}
				if wt := anonSet.ByUser(user); wt != nil {
					sameTrace(t, wt, pair[1])
				} else if pair[1] != nil {
					t.Errorf("user %s: unexpected anon side", user)
				}
			}
			if res.stats.Orig.Points != int64(origSet.TotalPoints()) {
				t.Errorf("orig points = %d, want %d", res.stats.Orig.Points, origSet.TotalPoints())
			}
			if res.stats.Anon.Points != int64(anonSet.TotalPoints()) {
				t.Errorf("anon points = %d, want %d", res.stats.Anon.Points, anonSet.TotalPoints())
			}
			// The bound that makes larger-than-RAM evaluation possible:
			// at most one user in flight per scanning goroutine (3 orig
			// segments in pass 1, 5 anon segments in pass 2).
			if res.stats.PeakBufferedUsers == 0 {
				t.Errorf("paired scan reported no in-flight users")
			}
			if res.stats.PeakBufferedUsers > 5 {
				t.Errorf("PeakBufferedUsers = %d > 5 scanning goroutines", res.stats.PeakBufferedUsers)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScanTracesPairedSelf pins the degenerate case: a store paired
// with itself has no one-sided users and both sides identical.
func TestScanTracesPairedSelf(t *testing.T) {
	var traces []*trace.Trace
	for u := 0; u < 6; u++ {
		traces = append(traces, quantizedTrace(fmt.Sprintf("s%d", u), u, 6))
	}
	s := buildFragmented(t, traces, 2, 3)
	res := collectPairs(t, s, s, ScanOptions{Workers: 2})
	if res.stats.Paired != 6 || len(res.stats.OnlyOrig) != 0 || len(res.stats.OnlyAnon) != 0 {
		t.Fatalf("self pairing: %+v", res.stats)
	}
	for user, pair := range res.pairs {
		sameTrace(t, pair[0], pair[1])
		if pair[0].User != user {
			t.Errorf("pair keyed %q holds %q", user, pair[0].User)
		}
	}
}

// TestScanTracesPairedFilters pins that the filters apply to both
// sides, that footer pruning is counted per side, and that a user whose
// points survive on one side only is reported one-sided.
func TestScanTracesPairedFilters(t *testing.T) {
	base := time.Date(2025, 6, 1, 8, 0, 0, 0, time.UTC)
	mk := func(user string, start time.Time, n int) *trace.Trace {
		pts := make([]trace.Point, n)
		for i := range pts {
			pts[i] = trace.P(45, 4.8+float64(i)/1e4, start.Add(time.Duration(i)*time.Minute))
		}
		return trace.MustNew(user, pts)
	}
	cutoff := base.Add(time.Hour)
	// "early" exists before the cutoff in the anon store only; its orig
	// side spans the cutoff. "late" is past the cutoff on both sides.
	orig := buildFragmented(t, []*trace.Trace{
		mk("early", base, 120), // spans cutoff
		mk("late", cutoff.Add(time.Hour), 5),
	}, 2, 64)
	anon := buildFragmented(t, []*trace.Trace{
		mk("early", base, 30), // entirely before cutoff
		mk("late", cutoff.Add(2*time.Hour), 5),
	}, 3, 64)

	t.Run("time filter one-sides a user", func(t *testing.T) {
		res := collectPairs(t, orig, anon, ScanOptions{From: cutoff})
		if res.stats.Paired != 1 {
			t.Errorf("Paired = %d, want 1 (late)", res.stats.Paired)
		}
		if !equalStrings(res.stats.OnlyOrig, []string{"early"}) {
			t.Errorf("OnlyOrig = %v, want [early]", res.stats.OnlyOrig)
		}
		if len(res.stats.OnlyAnon) != 0 {
			t.Errorf("OnlyAnon = %v, want empty", res.stats.OnlyAnon)
		}
		pair := res.pairs["early"]
		if pair[0] == nil || pair[1] != nil {
			t.Fatalf("early delivered as %v, want orig-only", pair)
		}
		for _, p := range pair[0].Points {
			if p.Time.Before(cutoff) {
				t.Fatalf("point %v before cutoff", p.Time)
			}
		}
		if res.stats.Anon.BlocksPruned == 0 {
			t.Errorf("anon side pruned nothing: %+v", res.stats.Anon)
		}
	})

	t.Run("user filter", func(t *testing.T) {
		res := collectPairs(t, orig, anon, ScanOptions{Users: []string{"late"}})
		if res.stats.Paired != 1 || len(res.pairs) != 1 || res.pairs["late"][0] == nil {
			t.Fatalf("user-filtered pairing: %+v, pairs %v", res.stats, res.pairs)
		}
		if res.stats.Orig.BlocksPruned == 0 || res.stats.Anon.BlocksPruned == 0 {
			t.Errorf("user filter pruned nothing: orig %+v anon %+v", res.stats.Orig, res.stats.Anon)
		}
	})
}

// TestScanTracesPairedProperty is the randomized alignment property:
// for arbitrary overlapping populations, fragmentations and shard
// counts, the paired scan delivers exactly the user intersection as
// pairs and exactly the symmetric difference one-sided.
func TestScanTracesPairedProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for iter := 0; iter < 12; iter++ {
		var origTr, anonTr []*trace.Trace
		origUsers := make(map[string]bool)
		anonUsers := make(map[string]bool)
		for u := 0; u < 14; u++ {
			user := fmt.Sprintf("p%02d", u)
			n := 2 + rnd.Intn(9)
			inOrig := rnd.Intn(3) > 0
			inAnon := rnd.Intn(3) > 0
			if inOrig {
				origTr = append(origTr, quantizedTrace(user, u, n))
				origUsers[user] = true
			}
			if inAnon {
				anonTr = append(anonTr, quantizedTrace(user, u+50, n+1))
				anonUsers[user] = true
			}
		}
		if len(origTr) == 0 || len(anonTr) == 0 {
			continue
		}
		orig := buildFragmented(t, origTr, 1+rnd.Intn(4), 1+rnd.Intn(4))
		anon := buildFragmented(t, anonTr, 1+rnd.Intn(4), 1+rnd.Intn(4))
		res := collectPairs(t, orig, anon, ScanOptions{Workers: 1 + rnd.Intn(4)})

		var wantPaired int64
		var wantOnlyOrig, wantOnlyAnon []string
		for u := range origUsers {
			if anonUsers[u] {
				wantPaired++
			} else {
				wantOnlyOrig = append(wantOnlyOrig, u)
			}
		}
		for u := range anonUsers {
			if !origUsers[u] {
				wantOnlyAnon = append(wantOnlyAnon, u)
			}
		}
		sort.Strings(wantOnlyOrig)
		sort.Strings(wantOnlyAnon)
		if res.stats.Paired != wantPaired {
			t.Fatalf("iter %d: Paired = %d, want %d", iter, res.stats.Paired, wantPaired)
		}
		if !equalStrings(res.stats.OnlyOrig, wantOnlyOrig) {
			t.Fatalf("iter %d: OnlyOrig = %v, want %v", iter, res.stats.OnlyOrig, wantOnlyOrig)
		}
		if !equalStrings(res.stats.OnlyAnon, wantOnlyAnon) {
			t.Fatalf("iter %d: OnlyAnon = %v, want %v", iter, res.stats.OnlyAnon, wantOnlyAnon)
		}
		if int64(len(res.pairs)) != wantPaired+int64(len(wantOnlyOrig)+len(wantOnlyAnon)) {
			t.Fatalf("iter %d: delivered %d users", iter, len(res.pairs))
		}
	}
}

// TestScanTracesPairedErrors pins error propagation and the closed
// guard.
func TestScanTracesPairedErrors(t *testing.T) {
	s := buildFragmented(t, []*trace.Trace{quantizedTrace("e", 1, 4)}, 2, 2)
	boom := errors.New("boom")
	if _, err := ScanTracesPaired(context.Background(), s, s, ScanOptions{}, func(o, a *trace.Trace) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	closed := buildFragmented(t, []*trace.Trace{quantizedTrace("c", 1, 4)}, 1, 2)
	closed.Close()
	if _, err := ScanTracesPaired(context.Background(), s, closed, ScanOptions{}, func(o, a *trace.Trace) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestScanTracesPairedOwnsTraces pins the ownership contract when the
// block cache holds what a scan reads: a callee that scribbles over
// the traces it was handed, with the cache on and under NoCache alike,
// must not change what later scans read. Under NoCache a gather that
// hit the cache copies, and one that decoded its own blocks hands them
// over.
func TestScanTracesPairedOwnsTraces(t *testing.T) {
	var traces []*trace.Trace
	for u := 0; u < 4; u++ {
		traces = append(traces, quantizedTrace(fmt.Sprintf("o%d", u), u, 20))
	}
	ds := trace.MustNewDataset(traces)
	dir := filepath.Join(t.TempDir(), "single.mstore")
	if err := WriteDataset(dir, ds, Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	single, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	fragmented := buildFragmented(t, traces, 2, 7)

	scribble := func(o, a *trace.Trace) error {
		for _, tr := range []*trace.Trace{o, a} {
			for i := range tr.Points {
				tr.Points[i].Lat, tr.Points[i].Lng = 0, 0
			}
		}
		return nil
	}
	for name, s := range map[string]*Store{"single-block": single, "fragmented": fragmented} {
		for _, opts := range []ScanOptions{{NoCache: true}, {}, {NoCache: true}} {
			if _, err := ScanTracesPaired(context.Background(), s, s, opts, scribble); err != nil {
				t.Fatal(err)
			}
		}
		res := collectPairs(t, s, s, ScanOptions{NoCache: true})
		for _, want := range traces {
			pair := res.pairs[want.User]
			sameTrace(t, want, pair[0])
			sameTrace(t, want, pair[1])
		}
		if st := res.stats; st.Orig.CacheHits == 0 {
			t.Errorf("%s: the final scan hit no cache entry, so the test proves nothing", name)
		}
	}
}
