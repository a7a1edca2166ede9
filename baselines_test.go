package mobipriv

import (
	"context"
	"slices"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

var (
	testT0     = time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	testOrigin = geo.Point{Lat: 45.7640, Lng: 4.8357}
)

// shortTrace is a trace of user whose 80 m path cannot survive
// smoothing at 100 m spacing with 100 m of trim at each end.
func shortTrace(user string) *trace.Trace {
	return trace.MustNew(user, []trace.Point{
		{Point: testOrigin, Time: testT0},
		{Point: geo.Destination(testOrigin, 90, 80), Time: testT0.Add(time.Minute)},
	})
}

// TestPromesseDataset checks the smoothing mechanism's invariants on a
// whole dataset: every input trace is either published or dropped, the
// output is valid, and every published trace has uniform time steps
// and uniform arc-length spacing epsilon, which bounds every chord at
// epsilon, with chords shorter than epsilon only at path turns.
// (POI-attack effectiveness on whole datasets is measured by the
// attack-level tests.)
func TestPromesseDataset(t *testing.T) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 6
	cfg.Sampling = time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const epsilon = 100.0
	res, err := Promesse(epsilon).Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Dataset
	if out.Len()+len(res.DroppedUsers()) != g.Dataset.Len() {
		t.Fatalf("output %d + dropped %d != input %d", out.Len(), len(res.DroppedUsers()), g.Dataset.Len())
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("smoothed dataset invalid: %v", err)
	}
	for _, tr := range out.Traces() {
		if tr.Len() < 3 {
			continue
		}
		dt0 := tr.Points[1].Time.Sub(tr.Points[0].Time)
		nearEps := 0
		for i := 1; i < tr.Len(); i++ {
			if i >= 2 {
				dt := tr.Points[i].Time.Sub(tr.Points[i-1].Time)
				if diff := dt - dt0; diff > time.Millisecond || diff < -time.Millisecond {
					t.Fatalf("user %s: non-uniform time step at %d: %v vs %v", tr.User, i, dt, dt0)
				}
			}
			chord := geo.Distance(tr.Points[i-1].Point, tr.Points[i].Point)
			if chord > epsilon*1.01 {
				t.Fatalf("user %s: chord %d = %v m exceeds epsilon", tr.User, i, chord)
			}
			if chord > epsilon*0.8 {
				nearEps++
			}
		}
		if frac := float64(nearEps) / float64(tr.Len()-1); frac < 0.6 {
			t.Fatalf("user %s: only %.0f%% of chords near epsilon (curvy beyond plausibility)", tr.User, frac*100)
		}
	}
}

// TestPromesseDropsShortTraces checks that a trace too short to
// survive end trimming is withheld and reported, by the mechanism and
// by the pipeline stage alike.
func TestPromesseDropsShortTraces(t *testing.T) {
	var pts []trace.Point
	for i := 0; i <= 20; i++ { // 3 km east at 5 m/s
		pts = append(pts, trace.Point{
			Point: geo.Destination(testOrigin, 90, float64(i)*150),
			Time:  testT0.Add(time.Duration(i) * 30 * time.Second),
		})
	}
	d := trace.MustNewDataset([]*trace.Trace{trace.MustNew("long", pts), shortTrace("tiny")})
	for name, m := range map[string]Mechanism{
		"promesse": promesse(100, 100, 0),
		"stage":    Pipeline(SpeedSmooth{Epsilon: 100, Trim: 100}),
	} {
		res, err := m.Apply(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		rep, _ := res.Report("smooth")
		if res.Dataset.Len() != 1 || !slices.Equal(rep.Dropped, []string{"tiny"}) {
			t.Fatalf("%s: out=%d dropped=%v", name, res.Dataset.Len(), rep.Dropped)
		}
	}
}

// TestGeoIDeterministicPerSeed: the same seed gives the same noise, a
// different seed different noise.
func TestGeoIDeterministicPerSeed(t *testing.T) {
	tr := trace.MustNew("u", []trace.Point{
		{Point: testOrigin, Time: testT0},
		{Point: geo.Offset(testOrigin, 50, 0), Time: testT0.Add(time.Minute)},
	})
	d := trace.MustNewDataset([]*trace.Trace{tr})
	perturb := func(seed int64) *trace.Trace {
		res, err := GeoI(0.01, seed).Apply(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		return res.Dataset.Traces()[0]
	}
	a, b := perturb(5), perturb(5)
	for i := range a.Points {
		if !a.Points[i].Point.Equal(b.Points[i].Point) {
			t.Fatal("same seed must give identical noise")
		}
	}
	if c := perturb(6); a.Points[0].Point.Equal(c.Points[0].Point) {
		t.Fatal("different seeds should differ")
	}
}
