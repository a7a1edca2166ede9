package poi

import (
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

var (
	t0     = time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	origin = geo.Point{Lat: 45.7640, Lng: 4.8357}
)

// stopGoTrace builds a trace that stays at A for stayDur, drives east
// 2 km, stays at B for stayDur, with samples every 30 s.
func stopGoTrace(t *testing.T, stayDur time.Duration) (*trace.Trace, geo.Point, geo.Point) {
	t.Helper()
	a := origin
	b := geo.Destination(origin, 90, 2000)
	var pts []trace.Point
	now := t0
	for elapsed := time.Duration(0); elapsed <= stayDur; elapsed += 30 * time.Second {
		pts = append(pts, trace.Point{Point: geo.Offset(a, float64(len(pts)%3), 0), Time: now})
		now = now.Add(30 * time.Second)
	}
	// Drive at 10 m/s: 200 s, a sample every 30 s.
	for d := 300.0; d < 2000; d += 300 {
		pts = append(pts, trace.Point{Point: geo.Destination(a, 90, d), Time: now})
		now = now.Add(30 * time.Second)
	}
	for elapsed := time.Duration(0); elapsed <= stayDur; elapsed += 30 * time.Second {
		pts = append(pts, trace.Point{Point: geo.Offset(b, float64(len(pts)%3), 0), Time: now})
		now = now.Add(30 * time.Second)
	}
	return trace.MustNew("u", pts), a, b
}

func TestStaysDetectsStops(t *testing.T) {
	tr, a, b := stopGoTrace(t, 10*time.Minute)
	stays, err := Stays(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 2 {
		t.Fatalf("detected %d stays, want 2", len(stays))
	}
	if d := geo.Distance(stays[0].Center, a); d > 20 {
		t.Errorf("first stay center %v m from A", d)
	}
	if d := geo.Distance(stays[1].Center, b); d > 20 {
		t.Errorf("second stay center %v m from B", d)
	}
	for i, s := range stays {
		if s.Duration() < 9*time.Minute {
			t.Errorf("stay %d duration %v, want ~10 min", i, s.Duration())
		}
		if s.Count < 10 {
			t.Errorf("stay %d has %d points", i, s.Count)
		}
	}
}

func TestStaysIgnoresShortPauses(t *testing.T) {
	tr, _, _ := stopGoTrace(t, 3*time.Minute) // below the 5-minute threshold
	stays, err := Stays(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 0 {
		t.Fatalf("detected %d stays in a trace with only short pauses", len(stays))
	}
}

func TestStaysOnConstantSpeedTrace(t *testing.T) {
	// A trace moving at constant speed with uniform spacing has no stays:
	// this is precisely the property the paper's mechanism exploits.
	var pts []trace.Point
	for i := 0; i < 200; i++ {
		pts = append(pts, trace.Point{
			Point: geo.Destination(origin, 90, float64(i)*100), // 100 m spacing
			Time:  t0.Add(time.Duration(i) * 30 * time.Second),
		})
	}
	tr := trace.MustNew("u", pts)
	stays, err := Stays(tr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(stays) != 0 {
		t.Fatalf("constant-speed trace yielded %d stays, want 0", len(stays))
	}
}

func TestStaysEdgeCases(t *testing.T) {
	if stays, err := Stays(nil, DefaultConfig()); err != nil || stays != nil {
		t.Errorf("nil trace: %v, %v", stays, err)
	}
	single := trace.MustNew("u", []trace.Point{trace.P(45, 4, t0)})
	stays, err := Stays(single, DefaultConfig())
	if err != nil || len(stays) != 0 {
		t.Errorf("single point: %v, %v", stays, err)
	}
}

func TestStaysConfigValidation(t *testing.T) {
	tr, _, _ := stopGoTrace(t, 10*time.Minute)
	for _, cfg := range []Config{
		{MaxDiameter: 0, MinDuration: time.Minute},
		{MaxDiameter: 100, MinDuration: 0},
		{MaxDiameter: 100, MinDuration: time.Minute, MergeRadius: -1},
	} {
		if _, err := Stays(tr, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestClusterMergesRepeatVisits(t *testing.T) {
	mk := func(center geo.Point, enter time.Time, dur time.Duration) Stay {
		return Stay{Center: center, Enter: enter, Leave: enter.Add(dur), Count: 10}
	}
	home := origin
	work := geo.Destination(origin, 90, 3000)
	stays := []Stay{
		mk(home, t0, 8*time.Hour),
		mk(geo.Offset(home, 30, 10), t0.Add(24*time.Hour), 9*time.Hour), // same place, next day
		mk(work, t0.Add(9*time.Hour), 8*time.Hour),
	}
	pois := Cluster(stays, 100)
	if len(pois) != 2 {
		t.Fatalf("clustered into %d POIs, want 2", len(pois))
	}
	// Sorted by total time: home (17h) before work (8h).
	if pois[0].Visits != 2 || pois[0].TotalTime != 17*time.Hour {
		t.Errorf("home POI = %+v", pois[0])
	}
	if d := geo.Distance(pois[0].Center, home); d > 40 {
		t.Errorf("home POI center off by %v m", d)
	}
	if pois[1].Visits != 1 {
		t.Errorf("work POI = %+v", pois[1])
	}
}

func TestClusterTransitive(t *testing.T) {
	// A chain a-b-c where a-c exceeds the radius but a-b and b-c are
	// within it must merge into one POI (union-find transitivity).
	a := origin
	b := geo.Offset(origin, 80, 0)
	c := geo.Offset(origin, 160, 0)
	stays := []Stay{
		{Center: a, Enter: t0, Leave: t0.Add(time.Hour)},
		{Center: b, Enter: t0.Add(2 * time.Hour), Leave: t0.Add(3 * time.Hour)},
		{Center: c, Enter: t0.Add(4 * time.Hour), Leave: t0.Add(5 * time.Hour)},
	}
	if pois := Cluster(stays, 100); len(pois) != 1 {
		t.Fatalf("chain clustered into %d POIs, want 1", len(pois))
	}
	if pois := Cluster(stays, 50); len(pois) != 3 {
		t.Fatalf("tight radius clustered into %d POIs, want 3", len(pois))
	}
}

func TestClusterEmpty(t *testing.T) {
	if got := Cluster(nil, 100); got != nil {
		t.Fatalf("Cluster(nil) = %v", got)
	}
}

func TestClusterZeroDurationStays(t *testing.T) {
	stays := []Stay{
		{Center: origin, Enter: t0, Leave: t0},
		{Center: geo.Offset(origin, 10, 0), Enter: t0, Leave: t0},
	}
	pois := Cluster(stays, 100)
	if len(pois) != 1 || pois[0].Visits != 2 {
		t.Fatalf("zero-duration cluster = %+v", pois)
	}
}

func TestExtractOnSyntheticCommuters(t *testing.T) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 5
	cfg.Sampling = time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ExtractAll(g.Dataset, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Each commuter's extracted POIs must include a point near home and
	// near work (their two longest ground-truth stays).
	for _, u := range g.Dataset.Users() {
		pois := all[u]
		if len(pois) < 2 {
			t.Errorf("user %s: %d POIs extracted, want >= 2", u, len(pois))
			continue
		}
		truth := g.StaysOf(u)
		matched := 0
		for _, ts := range truth {
			for _, p := range pois {
				if geo.Distance(p.Center, ts.Center) <= 250 {
					matched++
					break
				}
			}
		}
		if matched == 0 {
			t.Errorf("user %s: no ground-truth stay matched by extraction", u)
		}
	}
}

func BenchmarkStays(b *testing.B) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 1
	g, err := synth.Commuters(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr := g.Dataset.Traces()[0]
	pcfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stays(tr, pcfg); err != nil {
			b.Fatal(err)
		}
	}
}
