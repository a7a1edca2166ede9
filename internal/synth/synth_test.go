package synth

import (
	"testing"
	"time"

	"mobipriv/internal/geo"
)

func smallCommuters(t *testing.T, seed int64) *Generated {
	t.Helper()
	cfg := DefaultCommuterConfig()
	cfg.Seed = seed
	cfg.Users = 8
	cfg.Sampling = 2 * time.Minute
	g, err := Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCommutersBasics(t *testing.T) {
	g := smallCommuters(t, 1)
	if g.Dataset.Len() != 8 {
		t.Fatalf("users = %d, want 8", g.Dataset.Len())
	}
	if err := g.Dataset.Validate(); err != nil {
		t.Fatalf("generated dataset invalid: %v", err)
	}
	if len(g.Stays) == 0 {
		t.Fatal("commuters must produce ground-truth stays")
	}
	if len(g.Venues) == 0 {
		t.Fatal("commuters must expose shared venues")
	}
	// Every user has at least home + work stays per day.
	for _, u := range g.Dataset.Users() {
		if got := len(g.StaysOf(u)); got < 3 {
			t.Errorf("user %s has %d stays, want >= 3 (home-work-home)", u, got)
		}
	}
}

func TestCommutersDeterministic(t *testing.T) {
	g1 := smallCommuters(t, 42)
	g2 := smallCommuters(t, 42)
	if g1.Dataset.TotalPoints() != g2.Dataset.TotalPoints() {
		t.Fatal("same seed must give identical datasets")
	}
	tr1 := g1.Dataset.Traces()[0]
	tr2 := g2.Dataset.Traces()[0]
	for i := range tr1.Points {
		if !tr1.Points[i].Time.Equal(tr2.Points[i].Time) || !tr1.Points[i].Point.Equal(tr2.Points[i].Point) {
			t.Fatalf("point %d differs between runs with same seed", i)
		}
	}
	g3 := smallCommuters(t, 43)
	if g1.Dataset.TotalPoints() == g3.Dataset.TotalPoints() &&
		g1.Dataset.Traces()[0].Points[10].Point.Equal(g3.Dataset.Traces()[0].Points[10].Point) {
		t.Fatal("different seeds should give different data")
	}
}

func TestCommutersStaysMatchTrace(t *testing.T) {
	g := smallCommuters(t, 7)
	// During each labelled stay, the user's observed positions must be
	// near the stay center (within GPS noise tolerance).
	cfg := DefaultCommuterConfig()
	for _, s := range g.Stays {
		tr := g.Dataset.ByUser(s.User)
		if tr == nil {
			t.Fatalf("stay references unknown user %s", s.User)
		}
		if s.Leave.Before(s.Enter) {
			t.Fatalf("stay leaves before entering: %+v", s)
		}
		if s.Leave.Sub(s.Enter) < MinStayLabel {
			t.Fatalf("stay shorter than MinStayLabel: %v", s.Leave.Sub(s.Enter))
		}
		n := 0
		for _, p := range tr.Points {
			if p.Time.Before(s.Enter) || p.Time.After(s.Leave) {
				continue
			}
			n++
			if d := geo.Distance(p.Point, s.Center); d > cfg.GPSNoise*6+1 {
				t.Errorf("user %s point at %v is %v m from stay center", s.User, p.Time, d)
			}
		}
		if n == 0 {
			t.Errorf("stay %v..%v of %s has no observations", s.Enter, s.Leave, s.User)
		}
	}
}

func TestCommutersRealisticSpeeds(t *testing.T) {
	g := smallCommuters(t, 3)
	for _, tr := range g.Dataset.Traces() {
		for i, s := range tr.Speeds() {
			if s > 40 { // ~144 km/h: nothing in the model drives that fast
				t.Fatalf("user %s segment %d speed %v m/s is unrealistic", tr.User, i, s)
			}
		}
	}
}

func TestCommutersValidation(t *testing.T) {
	bad := []func(*CommuterConfig){
		func(c *CommuterConfig) { c.Users = 0 },
		func(c *CommuterConfig) { c.Days = 0 },
		func(c *CommuterConfig) { c.CityRadius = -1 },
		func(c *CommuterConfig) { c.Sampling = 0 },
		func(c *CommuterConfig) { c.GPSNoise = -2 },
		func(c *CommuterConfig) { c.DriveSpeed = 0 },
		func(c *CommuterConfig) { c.Center.Lat = 99 },
	}
	for i, mutate := range bad {
		cfg := DefaultCommuterConfig()
		mutate(&cfg)
		if _, err := Commuters(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestTaxiFleetBasics(t *testing.T) {
	cfg := DefaultTaxiConfig()
	cfg.Vehicles = 6
	cfg.TripsEach = 4
	g, err := TaxiFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dataset.Len() != 6 {
		t.Fatalf("vehicles = %d, want 6", g.Dataset.Len())
	}
	if err := g.Dataset.Validate(); err != nil {
		t.Fatalf("invalid dataset: %v", err)
	}
	if len(g.Stays) == 0 {
		t.Fatal("taxis must produce stand-wait stays")
	}
	// All points inside a generous city bounding box.
	box := geo.BBox{}
	box.Extend(geo.Offset(cfg.Center, -3*cfg.CityRadius, -3*cfg.CityRadius))
	box.Extend(geo.Offset(cfg.Center, 3*cfg.CityRadius, 3*cfg.CityRadius))
	for _, tr := range g.Dataset.Traces() {
		for _, p := range tr.Points {
			if !box.Contains(p.Point) {
				t.Fatalf("point %v far outside city", p)
			}
		}
	}
}

func TestTaxiFleetValidation(t *testing.T) {
	cfg := DefaultTaxiConfig()
	cfg.Vehicles = 0
	if _, err := TaxiFleet(cfg); err == nil {
		t.Error("invalid config accepted")
	}
	cfg = DefaultTaxiConfig()
	cfg.TripsEach = -1
	if _, err := TaxiFleet(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRandomWaypointBasics(t *testing.T) {
	cfg := DefaultRandomWaypointConfig()
	cfg.Users = 5
	cfg.Legs = 4
	g, err := RandomWaypoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dataset.Len() != 5 {
		t.Fatalf("users = %d", g.Dataset.Len())
	}
	if err := g.Dataset.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pauses of >= MinStayLabel show up as stays; with PauseMin=2min and
	// PauseMax=20min some but not necessarily all legs produce stays.
	if len(g.Stays) == 0 {
		t.Fatal("random waypoint should produce some stays")
	}
}

func TestRandomWaypointValidation(t *testing.T) {
	cfg := DefaultRandomWaypointConfig()
	cfg.SpeedMin = 0
	if _, err := RandomWaypoint(cfg); err == nil {
		t.Error("invalid speed accepted")
	}
	cfg = DefaultRandomWaypointConfig()
	cfg.PauseMax = cfg.PauseMin - 1
	if _, err := RandomWaypoint(cfg); err == nil {
		t.Error("invalid pause range accepted")
	}
}

func TestSamplingIntervalRespected(t *testing.T) {
	g := smallCommuters(t, 5)
	cfg := DefaultCommuterConfig()
	cfg.Sampling = 2 * time.Minute
	for _, tr := range g.Dataset.Traces() {
		for i := 1; i < tr.Len(); i++ {
			dt := tr.Points[i].Time.Sub(tr.Points[i-1].Time)
			if dt < cfg.Sampling-time.Second {
				t.Fatalf("user %s: consecutive samples %v apart, sampling %v", tr.User, dt, cfg.Sampling)
			}
		}
	}
}

func TestStaysOfUnknownUser(t *testing.T) {
	g := smallCommuters(t, 1)
	if got := g.StaysOf("nobody"); got != nil {
		t.Fatalf("StaysOf(nobody) = %v", got)
	}
}
