package mobipriv

import (
	"context"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/stream"
)

// replayUpdates flattens a dataset into one globally time-interleaved
// update stream — what a live ingestion path would see.
func replayUpdates(d *Dataset) []stream.Update {
	var out []stream.Update
	for _, tr := range d.Traces() {
		for _, p := range tr.Points {
			out = append(out, stream.Update{User: tr.User, Point: p})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// replayThroughEngine replays the dataset through a sharded engine
// running the spec's streaming adapter and returns the flushed output
// grouped per (output) user.
func replayThroughEngine(t *testing.T, spec string, shards int, d *Dataset) map[string][]Point {
	t.Helper()
	m := MustFromSpec(spec)
	factory, ok := AsStreaming(m)
	if !ok {
		t.Fatalf("spec %q is not streaming-capable", spec)
	}
	var mu sync.Mutex
	got := make(map[string][]Point)
	eng, err := stream.NewEngine(stream.Config{
		Shards: shards,
		Sink: func(batch []stream.Update) {
			mu.Lock()
			for _, u := range batch {
				got[u.User] = append(got[u.User], u.Point)
			}
			mu.Unlock()
		},
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	ctx := context.Background()
	updates := replayUpdates(d)
	for i := 0; i < len(updates); i += 64 {
		if err := eng.Push(ctx, updates[i:min(i+64, len(updates))]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStreamingGeoIReplayEquivalence is the replay-equivalence
// acceptance test for the memoryless mechanism: streaming through the
// sharded engine is byte-identical to the batch baseline for the same
// seed, because both derive the same per-user noise streams.
func TestStreamingGeoIReplayEquivalence(t *testing.T) {
	d := commuterData(t, 12).Dataset
	const spec = "geoi(epsilon=0.01,seed=7)"
	batch, err := NewRunner(WithWorkers(4)).Run(context.Background(), MustFromSpec(spec), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 5} {
		got := replayThroughEngine(t, spec, shards, d)
		if len(got) != batch.Dataset.Len() {
			t.Fatalf("shards=%d: %d streamed users, batch %d", shards, len(got), batch.Dataset.Len())
		}
		for _, tr := range batch.Dataset.Traces() {
			pts := got[tr.User]
			if len(pts) != tr.Len() {
				t.Fatalf("shards=%d user %s: %d streamed points, batch %d", shards, tr.User, len(pts), tr.Len())
			}
			for i, w := range tr.Points {
				g := pts[i]
				if g.Lat != w.Lat || g.Lng != w.Lng || !g.Time.Equal(w.Time) {
					t.Fatalf("shards=%d user %s point %d: streamed %v, batch %v (must be byte-identical)",
						shards, tr.User, i, g, w)
				}
			}
		}
	}
}

// TestStreamingPromesseReplayGuarantees verifies the windowed smoother
// preserves the batch mechanism's spatial guarantees when replaying a
// recorded dataset: endpoints survive, inter-point spacing is uniform
// at epsilon (never above it, up to interpolation error), every point
// lies near the original path, and published times strictly increase.
func TestStreamingPromesseReplayGuarantees(t *testing.T) {
	d := commuterData(t, 8).Dataset
	const eps = 100.0
	got := replayThroughEngine(t, "promesse(epsilon=100,window=500)", 4, d)
	if len(got) != d.Len() {
		t.Fatalf("%d streamed users, want %d", len(got), d.Len())
	}
	for _, tr := range d.Traces() {
		pts := got[tr.User]
		if len(pts) < 2 {
			t.Fatalf("user %s: only %d points streamed", tr.User, len(pts))
		}
		// Endpoints preserved.
		if !pts[0].Point.Equal(tr.Start().Point) || !pts[0].Time.Equal(tr.Start().Time) {
			t.Errorf("user %s: start not preserved", tr.User)
		}
		last := pts[len(pts)-1]
		if geo.Distance(last.Point, tr.End().Point) > 1e-6 || !last.Time.Equal(tr.End().Time) {
			t.Errorf("user %s: end not preserved", tr.User)
		}
		// Uniform spacing: consecutive points are epsilon apart along
		// the path, so their direct distance never exceeds epsilon
		// (strictly less only where the path bends).
		shortGaps := 0
		for i := 1; i < len(pts)-1; i++ {
			d := geo.Distance(pts[i-1].Point, pts[i].Point)
			if d > eps*(1+1e-6) {
				t.Fatalf("user %s gap %d = %.3f m, want <= %g", tr.User, i, d, eps)
			}
			if d < eps*0.5 {
				shortGaps++
			}
		}
		if n := len(pts) - 2; n > 0 && shortGaps > n/2 {
			t.Errorf("user %s: %d/%d gaps far below epsilon — spacing not uniform", tr.User, shortGaps, n)
		}
		for i := 1; i < len(pts); i++ {
			if !pts[i].Time.After(pts[i-1].Time) {
				t.Fatalf("user %s: published times not strictly increasing at %d", tr.User, i)
			}
		}
	}
}

// TestStreamingCapabilityResolution pins down which registry specs
// resolve to streaming adapters and that the capability survives the
// FromSpec name-normalization wrapper.
func TestStreamingCapabilityResolution(t *testing.T) {
	for _, spec := range []string{"raw", "promesse", "promesse(epsilon=200,window=800)", "geoi(0.01)"} {
		m := MustFromSpec(spec)
		f, ok := AsStreaming(m)
		if !ok {
			t.Errorf("AsStreaming(%q) = false, want streaming-capable", spec)
			continue
		}
		sm := f("alice")
		p := Point{Point: geo.Point{Lat: 45.76, Lng: 4.83}, Time: time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)}
		out := append(sm.Push(p), sm.Flush()...)
		if len(out) == 0 {
			t.Errorf("%q: single point in, nothing out after flush", spec)
		}
	}
	for _, spec := range []string{"pipeline", "w4m(k=2,delta=500)"} {
		if _, ok := AsStreaming(MustFromSpec(spec)); ok {
			t.Errorf("AsStreaming(%q) = true; mix-zone/w4m mechanisms need the full population and cannot stream", spec)
		}
	}
	names := StreamingMechanisms()
	want := []string{"geoi", "promesse", "raw"}
	if len(names) != len(want) {
		t.Fatalf("StreamingMechanisms() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("StreamingMechanisms() = %v, want %v", names, want)
		}
	}
}

// TestStreamingPromesseBoundedMemory checks the windowed smoother holds
// back at most ~Window/Epsilon samples however long the trace runs —
// the bounded-memory property the online subsystem exists for.
func TestStreamingPromesseBoundedMemory(t *testing.T) {
	f, _ := AsStreaming(MustFromSpec("promesse(epsilon=100,window=400)"))
	sm := f("u")
	p := geo.Point{Lat: 45.76, Lng: 4.83}
	ts := time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	emitted := 0
	for i := 0; i < 5000; i++ {
		emitted += len(sm.Push(Point{Point: p, Time: ts}))
		p = geo.Offset(p, 0, 120)
		ts = ts.Add(30 * time.Second)
	}
	withheld := 5000*120/100 - emitted // samples generated minus released
	if withheld > 10 {
		t.Errorf("smoother withholding %d samples, want <= window/epsilon+slack", withheld)
	}
	if math.Abs(float64(len(sm.Flush()))-float64(withheld)) > 2 {
		t.Errorf("flush released %d, expected ~%d", emitted, withheld)
	}
}
