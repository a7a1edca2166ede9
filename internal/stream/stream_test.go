package stream

import (
	"math"
	"testing"
	"time"

	"mobipriv/internal/baseline/geoind"
	"mobipriv/internal/geo"
	"mobipriv/internal/trace"
)

var t0 = time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)

// line returns a straight northbound trace: n points, step meters apart,
// dt between observations, starting at t0.
func line(n int, step float64, dt time.Duration) []trace.Point {
	pts := make([]trace.Point, n)
	p := geo.Point{Lat: 45.76, Lng: 4.83}
	for i := range pts {
		pts[i] = trace.Point{Point: p, Time: t0.Add(time.Duration(i) * dt)}
		p = geo.Offset(p, 0, step)
	}
	return pts
}

func pushAll(m Mechanism, pts []trace.Point) []trace.Point {
	var out []trace.Point
	for _, p := range pts {
		out = append(out, m.Push(p)...)
	}
	return append(out, m.Flush()...)
}

func TestPromesseUniformSpacingStraightLine(t *testing.T) {
	const eps = 100.0
	m := Promesse{Epsilon: eps, Window: 300}.New("u")
	in := line(50, 40, 30*time.Second) // 49 segments of 40 m ≈ 1960 m path
	out := pushAll(m, in)
	if len(out) < 10 {
		t.Fatalf("got %d points, want many", len(out))
	}
	// Endpoints preserved exactly (position and time).
	if !out[0].Point.Equal(in[0].Point) || !out[0].Time.Equal(in[0].Time) {
		t.Errorf("first point = %v, want %v", out[0], in[0])
	}
	last, rawLast := out[len(out)-1], in[len(in)-1]
	if geo.Distance(last.Point, rawLast.Point) > 1e-6 || !last.Time.Equal(rawLast.Time) {
		t.Errorf("last point = %v, want %v", last, rawLast)
	}
	// Uniform spacing: every gap except the final one is exactly eps on
	// a straight path.
	for i := 1; i < len(out)-1; i++ {
		d := geo.Distance(out[i-1].Point, out[i].Point)
		if math.Abs(d-eps) > 1e-6 {
			t.Errorf("gap %d = %.9f m, want %g", i, d, eps)
		}
	}
	if d := geo.Distance(out[len(out)-2].Point, last.Point); d > eps+1e-6 {
		t.Errorf("final gap = %f m, want <= %g", d, eps)
	}
	// Published timestamps strictly increasing.
	for i := 1; i < len(out); i++ {
		if !out[i].Time.After(out[i-1].Time) {
			t.Fatalf("times not strictly increasing at %d: %v then %v", i, out[i-1].Time, out[i].Time)
		}
	}
}

func TestPromesseCollapsesStationaryJitter(t *testing.T) {
	const eps = 100.0
	// Move 500 m, dwell with 5 m jitter for 30 samples, move 500 m more.
	var in []trace.Point
	p := geo.Point{Lat: 45.76, Lng: 4.83}
	ts := t0
	push := func(q geo.Point) { in = append(in, trace.Point{Point: q, Time: ts}); ts = ts.Add(15 * time.Second) }
	for i := 0; i < 10; i++ {
		push(p)
		p = geo.Offset(p, 0, 50)
	}
	stop := p
	for i := 0; i < 30; i++ {
		push(geo.Offset(stop, float64(i%3)*5, float64(i%2)*5))
	}
	for i := 0; i < 10; i++ {
		p = geo.Offset(p, 0, 50)
		push(p)
	}
	out := pushAll(Promesse{Epsilon: eps}.New("u"), in)
	// The jitter scribble (~30 points within 10 m) must not inflate the
	// path: total path ≈ 1000 m → about 11 samples plus the endpoint.
	if len(out) > 14 {
		t.Errorf("got %d output points; stationary jitter not collapsed", len(out))
	}
	for i := 1; i < len(out); i++ {
		if !out[i].Time.After(out[i-1].Time) {
			t.Fatalf("times not strictly increasing at %d", i)
		}
	}
}

func TestPromesseShortTraceKeepsEndpoints(t *testing.T) {
	// A trace shorter than eps still publishes its two endpoints.
	in := line(5, 10, time.Minute) // 40 m total, eps 100
	out := pushAll(Promesse{Epsilon: 100}.New("u"), in)
	if len(out) != 2 {
		t.Fatalf("got %d points, want 2 (both endpoints): %v", len(out), out)
	}
	if !out[0].Point.Equal(in[0].Point) || geo.Distance(out[1].Point, in[len(in)-1].Point) > 1e-6 {
		t.Errorf("endpoints not preserved: %v", out)
	}
}

func TestPromesseResetsAfterFlush(t *testing.T) {
	m := Promesse{Epsilon: 100}.New("u")
	first := pushAll(m, line(20, 50, 30*time.Second))
	second := pushAll(m, line(20, 50, 30*time.Second))
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("flush did not reset state: %d then %d points", len(first), len(second))
	}
}

func TestGeoIMatchesBatchPerUser(t *testing.T) {
	cfg := geoind.Config{Epsilon: 0.01, Seed: 42}
	in := line(100, 30, 30*time.Second)
	tr := trace.MustNew("alice", in)
	batch, err := geoind.NewForUser(cfg, "alice")
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Perturb(tr)
	if err != nil {
		t.Fatal(err)
	}
	got := pushAll(GeoI{Epsilon: cfg.Epsilon, Seed: cfg.Seed}.newIncarnation("alice", 0), in)
	if len(got) != want.Len() {
		t.Fatalf("streaming emitted %d points, batch %d", len(got), want.Len())
	}
	for i := range got {
		w := want.Points[i]
		if got[i].Lat != w.Lat || got[i].Lng != w.Lng || !got[i].Time.Equal(w.Time) {
			t.Fatalf("point %d: streaming %v, batch %v", i, got[i], w)
		}
	}
}

// TestGeoIFactoryFreshNoisePerIncarnation: a user whose state is
// re-created (post flush/eviction) must NOT replay the first session's
// noise — identical inputs across sessions would otherwise difference
// to the exact relative movement. The first incarnation still matches
// the batch stream, and a fresh factory reproduces it (replay
// determinism).
func TestGeoIFactoryFreshNoisePerIncarnation(t *testing.T) {
	c := GeoI{Epsilon: 0.01, Seed: 1}
	f := c.Factory()
	in := line(20, 30, 30*time.Second)
	first := pushAll(f("alice"), in)
	second := pushAll(f("alice"), in) // same user, new lifetime, same raw input
	same := 0
	for i := range first {
		if first[i].Point.Equal(second[i].Point) {
			same++
		}
	}
	if same == len(first) {
		t.Fatal("second lifetime replayed the first lifetime's noise stream")
	}
	replay := pushAll(c.Factory()("alice"), in)
	for i := range first {
		if !first[i].Point.Equal(replay[i].Point) {
			t.Fatalf("first incarnation not deterministic across factories at %d", i)
		}
	}
	batch := pushAll(c.newIncarnation("alice", 0), in)
	for i := range first {
		if !first[i].Point.Equal(batch[i].Point) {
			t.Fatalf("first incarnation differs from the batch-equivalent stream at %d", i)
		}
	}
}

func TestPseudonymizeRelabels(t *testing.T) {
	c := Pseudonymize{Prefix: "p", Seed: 1}
	m := c.New("alice")
	r, ok := m.(Relabeler)
	if !ok {
		t.Fatal("pseudonymizer does not implement Relabeler")
	}
	label := r.OutUser("alice")
	if label == "alice" || label[:1] != "p" {
		t.Fatalf("label = %q", label)
	}
	// Deterministic, user-distinct, seed-distinct.
	if l2 := c.New("alice").(Relabeler).OutUser("alice"); l2 != label {
		t.Errorf("non-deterministic label: %q vs %q", label, l2)
	}
	if other := c.New("bob").(Relabeler).OutUser("bob"); other == label {
		t.Errorf("bob and alice share label %q", label)
	}
	if reseeded := (Pseudonymize{Prefix: "p", Seed: 2}).New("alice").(Relabeler).OutUser("alice"); reseeded == label {
		t.Errorf("seed change kept label %q", label)
	}
	// Points pass through unchanged.
	in := line(3, 50, time.Minute)
	out := pushAll(m, in)
	if len(out) != len(in) {
		t.Fatalf("got %d points, want %d", len(out), len(in))
	}
	for i := range out {
		if !out[i].Point.Equal(in[i].Point) || !out[i].Time.Equal(in[i].Time) {
			t.Errorf("point %d modified: %v", i, out[i])
		}
	}
}

func TestChainComposesAndRelabels(t *testing.T) {
	m := Chain(
		Promesse{Epsilon: 100, Window: 200}.New("alice"),
		Pseudonymize{Prefix: "p", Seed: 1}.New("alice"),
	)
	in := line(30, 50, 30*time.Second)
	direct := pushAll(Promesse{Epsilon: 100, Window: 200}.New("alice"), in)
	chained := pushAll(m, in)
	if len(chained) != len(direct) {
		t.Fatalf("chain emitted %d points, direct %d", len(chained), len(direct))
	}
	for i := range chained {
		if !chained[i].Point.Equal(direct[i].Point) || !chained[i].Time.Equal(direct[i].Time) {
			t.Fatalf("point %d: chain %v, direct %v", i, chained[i], direct[i])
		}
	}
	r, ok := m.(Relabeler)
	if !ok {
		t.Fatal("chain with pseudonymizer does not relabel")
	}
	if out := r.OutUser("alice"); out == "alice" {
		t.Errorf("chain OutUser = %q, want pseudonym", out)
	}
}

func TestPassthrough(t *testing.T) {
	in := line(4, 50, time.Minute)
	out := pushAll(Passthrough{}.New("u"), in)
	if len(out) != len(in) {
		t.Fatalf("got %d points, want %d", len(out), len(in))
	}
}
