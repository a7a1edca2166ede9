package mmc

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mobipriv"
	"mobipriv/internal/core"
	"mobipriv/internal/geo"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

var (
	t0     = time.Date(2015, 6, 29, 0, 0, 0, 0, time.UTC)
	origin = geo.Point{Lat: 45.7640, Lng: 4.8357}
)

// dailyTrace builds a home->work->home day with long stays, sampled
// every minute.
func dailyTrace(user string, home, work geo.Point) *trace.Trace {
	var pts []trace.Point
	now := t0
	stay := func(p geo.Point, d time.Duration) {
		for elapsed := time.Duration(0); elapsed < d; elapsed += time.Minute {
			pts = append(pts, trace.Point{Point: geo.Offset(p, float64(len(pts)%3), 0), Time: now})
			now = now.Add(time.Minute)
		}
	}
	move := func(from, to geo.Point) {
		d := geo.Distance(from, to)
		for cur := 300.0; cur < d; cur += 300 { // 5 m/s at 1-min sampling
			pts = append(pts, trace.Point{Point: geo.Interpolate(from, to, cur/d), Time: now})
			now = now.Add(time.Minute)
		}
	}
	stay(home, 7*time.Hour)
	move(home, work)
	stay(work, 8*time.Hour)
	move(work, home)
	stay(home, 6*time.Hour)
	return trace.MustNew(user, pts)
}

func TestBuildChain(t *testing.T) {
	home := origin
	work := geo.Destination(origin, 90, 3000)
	ch, err := Build(dailyTrace("u", home, work), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.States) != 2 {
		t.Fatalf("states = %d, want 2 (home, work)", len(ch.States))
	}
	// Home has the larger time share and must be state 0.
	if d := geo.Distance(ch.States[0], home); d > 250 {
		t.Errorf("state 0 is %v m from home", d)
	}
	if ch.Weight[0] <= ch.Weight[1] {
		t.Errorf("weights not ordered: %v", ch.Weight)
	}
	if math.Abs(ch.Weight[0]+ch.Weight[1]-1) > 1e-9 {
		t.Errorf("weights do not sum to 1: %v", ch.Weight)
	}
	// Transitions: rows are probability distributions.
	for i, row := range ch.Trans {
		var sum float64
		for _, p := range row {
			if p < 0 {
				t.Fatalf("negative transition prob in row %d", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Home <-> work transitions dominate.
	if ch.Trans[0][1] < ch.Trans[0][0] {
		t.Errorf("home->work prob %v should beat home->home %v", ch.Trans[0][1], ch.Trans[0][0])
	}
}

func TestBuildNoStates(t *testing.T) {
	// Constant-speed trace: no stays, no chain.
	var pts []trace.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, trace.Point{
			Point: geo.Destination(origin, 90, float64(i)*200),
			Time:  t0.Add(time.Duration(i) * time.Minute),
		})
	}
	_, err := Build(trace.MustNew("u", pts), DefaultConfig())
	if !errors.Is(err, ErrNoStates) {
		t.Fatalf("error = %v, want ErrNoStates", err)
	}
}

func TestDistanceProperties(t *testing.T) {
	home := origin
	work := geo.Destination(origin, 90, 3000)
	other := geo.Destination(origin, 180, 4000)
	a, err := Build(dailyTrace("a", home, work), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(dailyTrace("b", geo.Offset(home, 50, 0), geo.Offset(work, 50, 0)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Build(dailyTrace("c", other, geo.Destination(other, 45, 2500)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dSelf := Distance(a, a, 500)
	dNear := Distance(a, b, 500)
	dFar := Distance(a, c, 500)
	if dSelf > 1 {
		t.Errorf("self distance = %v, want ~0", dSelf)
	}
	if dNear >= dFar {
		t.Errorf("near distance %v should beat far distance %v", dNear, dFar)
	}
	// Symmetry.
	if diff := math.Abs(Distance(a, b, 500) - Distance(b, a, 500)); diff > 1e-9 {
		t.Errorf("distance not symmetric: diff %v", diff)
	}
}

func TestReidentifyRawVsSmoothed(t *testing.T) {
	// Training data: day 1 of a commuter population; test data: day 2
	// of the same simulation (same homes/works, fresh schedules).
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 10
	cfg.Sampling = 2 * time.Minute
	cfg.Days = 2
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := cfg.Start.Add(24 * time.Hour)
	var trainTraces, testTraces []*trace.Trace
	for _, tr := range g.Dataset.Traces() {
		if day1 := tr.Crop(cfg.Start, mid); day1 != nil {
			trainTraces = append(trainTraces, day1)
		}
		if day2 := tr.Crop(mid, cfg.Start.Add(48*time.Hour)); day2 != nil {
			testTraces = append(testTraces, day2)
		}
	}
	train := trace.MustNewDataset(trainTraces)
	test := trace.MustNewDataset(testTraces)

	chains, skipped, err := BuildAll(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) > 2 {
		t.Fatalf("too many users without training chains: %v", skipped)
	}

	ident := func(u string) string { return u }
	raw, err := Reidentify(test, chains, ident, DefaultConfig(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Rate < 0.7 {
		t.Errorf("raw day-2 re-identification = %v (%d/%d), want >= 0.7",
			raw.Rate, raw.Correct, raw.Total)
	}

	// Smoothing alone does NOT defeat this adversary: the pseudo-stays it
	// extracts lie on the user's own route, which passes through her own
	// home and workplace, so nearest-chain matching still succeeds. This
	// is an honest negative result: stop hiding is not route hiding.
	smoothed, _, err := core.SmoothDataset(test, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Reidentify(smoothed, chains, ident, DefaultConfig(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Rate > raw.Rate {
		t.Errorf("smoothing should not increase MMC re-identification: %v -> %v", raw.Rate, sm.Rate)
	}

	// The full pipeline (swapping) is what breaks route-based matching:
	// published traces are composites of several users' routes.
	res, err := mobipriv.MustFromSpec("pipeline").Apply(context.Background(), test)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := Reidentify(res.Dataset, chains, res.MajorityOwner, DefaultConfig(), 500)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Rate > raw.Rate/2 {
		t.Errorf("pipeline did not halve MMC re-identification: %v -> %v", raw.Rate, pipe.Rate)
	}
}

func TestReidentifyValidation(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{dailyTrace("u", origin, geo.Destination(origin, 90, 2000))})
	if _, err := Reidentify(d, nil, nil, DefaultConfig(), 500); err == nil {
		t.Fatal("nil truth accepted")
	}
}

func TestDistanceDefaultRadius(t *testing.T) {
	a, err := Build(dailyTrace("a", origin, geo.Destination(origin, 90, 3000)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := Distance(a, a, 0); got > 1 {
		t.Fatalf("Distance with default radius = %v", got)
	}
}
