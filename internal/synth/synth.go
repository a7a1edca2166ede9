// Package synth generates deterministic, seeded synthetic mobility
// datasets together with their ground truth (the true stop/POI
// intervals). It stands in for the real-life datasets of the paper's
// planned evaluation (Cabspotting, Geolife), reproducing the structural
// features the anonymization mechanisms and attacks interact with:
//
//   - stop clusters: users spend extended periods almost stationary at
//     semantically meaningful places (home, work, taxi stands) — these
//     are the POIs the mechanism must hide;
//   - movement at variable speed along plausible curved routes;
//   - natural path crossings: users share venues and road segments, so
//     trajectories meet in space and time — the mix-zones the swapping
//     step exploits;
//   - GPS sampling at a fixed interval with Gaussian position noise.
//
// Every generator is a pure function of its config (including Seed), so
// experiments are exactly reproducible.
package synth

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/trace"
)

// Stay is one ground-truth stop: the user was at Center (up to GPS
// noise) from Enter to Leave. Stays are what the POI-retrieval attack
// tries to recover; the generator emits them as labels.
type Stay struct {
	User   string
	Center geo.Point
	Enter  time.Time
	Leave  time.Time
}

// Generated bundles a synthetic dataset with its ground truth.
type Generated struct {
	Dataset *trace.Dataset
	// Stays holds every ground-truth stop of at least MinStayLabel
	// duration, in no particular order.
	Stays []Stay
	// Venues are the shared places (work sites, stands, malls) where
	// users naturally meet; useful for mix-zone analyses.
	Venues []geo.Point
}

// StaysOf returns the ground-truth stays of one user, in time order.
func (g *Generated) StaysOf(user string) []Stay {
	var out []Stay
	for _, s := range g.Stays {
		if s.User == user {
			out = append(out, s)
		}
	}
	return out
}

// MinStayLabel is the minimum stop duration recorded as a ground-truth
// stay. Shorter pauses (traffic lights, pickups) are not POIs in the
// sense of Gambs et al. and are not labelled.
const MinStayLabel = 5 * time.Minute

// CommuterConfig parameterizes the Geolife-like workload: individuals
// with homes, workplaces and leisure venues following daily schedules.
type CommuterConfig struct {
	Seed       int64
	Users      int
	Days       int
	Center     geo.Point     // city center
	CityRadius float64       // meters; homes/venues are placed within it
	Sampling   time.Duration // GPS sampling interval
	GPSNoise   float64       // stddev of per-point position noise, meters
	DriveSpeed float64       // mean driving speed, m/s
	Start      time.Time     // midnight of day 0
}

// DefaultCommuterConfig returns the configuration used by the
// experiments: 50 users, 1 day, a 5 km city, 60 s sampling, 5 m GPS
// noise.
func DefaultCommuterConfig() CommuterConfig {
	return CommuterConfig{
		Seed:       1,
		Users:      50,
		Days:       1,
		Center:     geo.Point{Lat: 45.7640, Lng: 4.8357},
		CityRadius: 5000,
		Sampling:   60 * time.Second,
		GPSNoise:   5,
		DriveSpeed: 10,
		Start:      time.Date(2015, 6, 29, 0, 0, 0, 0, time.UTC),
	}
}

func (c CommuterConfig) validate() error {
	switch {
	case c.Users <= 0:
		return errors.New("synth: Users must be positive")
	case c.Days <= 0:
		return errors.New("synth: Days must be positive")
	case c.CityRadius <= 0:
		return errors.New("synth: CityRadius must be positive")
	case c.Sampling <= 0:
		return errors.New("synth: Sampling must be positive")
	case c.GPSNoise < 0:
		return errors.New("synth: GPSNoise must be non-negative")
	case c.DriveSpeed <= 0:
		return errors.New("synth: DriveSpeed must be positive")
	}
	return c.Center.Validate()
}

// Commuters generates the commuter workload.
func Commuters(cfg CommuterConfig) (*Generated, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("commuters: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Shared venue pool: work sites and leisure venues. Several users per
	// venue creates natural meetings.
	nWork := maxInt(2, cfg.Users/5)
	nLeisure := maxInt(2, cfg.Users/8)
	workSites := randomPlaces(rng, cfg.Center, cfg.CityRadius, nWork)
	leisure := randomPlaces(rng, cfg.Center, cfg.CityRadius, nLeisure)
	venues := append(append([]geo.Point(nil), workSites...), leisure...)

	var traces []*trace.Trace
	var stays []Stay
	for u := 0; u < cfg.Users; u++ {
		user := fmt.Sprintf("user%03d", u)
		home := randomPlace(rng, cfg.Center, cfg.CityRadius)
		work := workSites[rng.Intn(len(workSites))]
		fav := leisure[rng.Intn(len(leisure))]

		b := newBuilder(rng, cfg.Sampling, cfg.GPSNoise, user)
		b.now = cfg.Start
		b.cur = home
		for day := 0; day < cfg.Days; day++ {
			dayStart := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
			leaveHome := dayStart.Add(7*time.Hour + 30*time.Minute +
				time.Duration(rng.NormFloat64()*float64(30*time.Minute)))
			b.stayUntil(home, leaveHome)
			b.travel(work, jitterSpeed(rng, cfg.DriveSpeed))

			leaveWork := dayStart.Add(17*time.Hour + 30*time.Minute +
				time.Duration(rng.NormFloat64()*float64(45*time.Minute)))
			if leaveWork.Before(b.now.Add(time.Hour)) {
				leaveWork = b.now.Add(8 * time.Hour)
			}
			b.stayUntil(work, leaveWork)

			if rng.Float64() < 0.5 {
				b.travel(fav, jitterSpeed(rng, cfg.DriveSpeed))
				leaveFav := b.now.Add(time.Hour +
					time.Duration(rng.Int63n(int64(90*time.Minute))))
				b.stayUntil(fav, leaveFav)
			}
			b.travel(home, jitterSpeed(rng, cfg.DriveSpeed))
			b.stayUntil(home, dayStart.Add(24*time.Hour))
		}
		tr, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("commuters: user %s: %w", user, err)
		}
		traces = append(traces, tr)
		stays = append(stays, b.stays...)
	}
	ds, err := trace.NewDataset(traces)
	if err != nil {
		return nil, fmt.Errorf("commuters: %w", err)
	}
	return &Generated{Dataset: ds, Stays: stays, Venues: venues}, nil
}

// TaxiConfig parameterizes the Cabspotting-like workload: a fleet of
// vehicles doing passenger trips interleaved with waits at shared
// stands.
type TaxiConfig struct {
	Seed       int64
	Vehicles   int
	TripsEach  int // passenger trips per vehicle
	Center     geo.Point
	CityRadius float64
	Sampling   time.Duration
	GPSNoise   float64
	DriveSpeed float64
	Start      time.Time
}

// DefaultTaxiConfig returns the configuration used by the experiments:
// 40 cabs, 8 trips each, a 6 km city, 30 s sampling.
func DefaultTaxiConfig() TaxiConfig {
	return TaxiConfig{
		Seed:       1,
		Vehicles:   40,
		TripsEach:  8,
		Center:     geo.Point{Lat: 37.7749, Lng: -122.4194},
		CityRadius: 6000,
		Sampling:   30 * time.Second,
		GPSNoise:   8,
		DriveSpeed: 9,
		Start:      time.Date(2015, 6, 29, 6, 0, 0, 0, time.UTC),
	}
}

func (c TaxiConfig) validate() error {
	switch {
	case c.Vehicles <= 0:
		return errors.New("synth: Vehicles must be positive")
	case c.TripsEach <= 0:
		return errors.New("synth: TripsEach must be positive")
	case c.CityRadius <= 0:
		return errors.New("synth: CityRadius must be positive")
	case c.Sampling <= 0:
		return errors.New("synth: Sampling must be positive")
	case c.GPSNoise < 0:
		return errors.New("synth: GPSNoise must be non-negative")
	case c.DriveSpeed <= 0:
		return errors.New("synth: DriveSpeed must be positive")
	}
	return c.Center.Validate()
}

// TaxiFleet generates the taxi workload.
func TaxiFleet(cfg TaxiConfig) (*Generated, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("taxi fleet: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Shared taxi stands: waiting cabs cluster here (the fleet's POIs)
	// and many trajectories cross.
	nStands := maxInt(3, cfg.Vehicles/6)
	stands := randomPlaces(rng, cfg.Center, cfg.CityRadius*0.8, nStands)

	var traces []*trace.Trace
	var stays []Stay
	for v := 0; v < cfg.Vehicles; v++ {
		user := fmt.Sprintf("cab%03d", v)
		b := newBuilder(rng, cfg.Sampling, cfg.GPSNoise, user)
		b.now = cfg.Start.Add(time.Duration(rng.Int63n(int64(30 * time.Minute))))
		stand := stands[rng.Intn(len(stands))]
		b.cur = stand
		// Initial wait at the stand.
		b.stayUntil(stand, b.now.Add(10*time.Minute+time.Duration(rng.Int63n(int64(20*time.Minute)))))
		for trip := 0; trip < cfg.TripsEach; trip++ {
			pickup := randomPlace(rng, cfg.Center, cfg.CityRadius)
			dropoff := randomPlace(rng, cfg.Center, cfg.CityRadius)
			b.travel(pickup, jitterSpeed(rng, cfg.DriveSpeed))
			// Short pickup pause: under MinStayLabel, not a POI.
			b.stayUntil(pickup, b.now.Add(time.Minute+time.Duration(rng.Int63n(int64(2*time.Minute)))))
			b.travel(dropoff, jitterSpeed(rng, cfg.DriveSpeed))
			// Every few trips, return to a stand and wait (a POI stop).
			if rng.Float64() < 0.4 {
				stand = stands[rng.Intn(len(stands))]
				b.travel(stand, jitterSpeed(rng, cfg.DriveSpeed))
				wait := 8*time.Minute + time.Duration(rng.Int63n(int64(25*time.Minute)))
				b.stayUntil(stand, b.now.Add(wait))
			}
		}
		tr, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("taxi fleet: %s: %w", user, err)
		}
		traces = append(traces, tr)
		stays = append(stays, b.stays...)
	}
	ds, err := trace.NewDataset(traces)
	if err != nil {
		return nil, fmt.Errorf("taxi fleet: %w", err)
	}
	return &Generated{Dataset: ds, Stays: stays, Venues: stands}, nil
}

// RandomWaypointConfig parameterizes the classic random-waypoint model:
// each user repeatedly picks a uniform destination, travels to it at a
// uniform speed and pauses. Hoh & Gruteser evaluated path confusion on
// exactly this model; it serves as the structureless control workload.
type RandomWaypointConfig struct {
	Seed     int64
	Users    int
	Legs     int // move+pause cycles per user
	Center   geo.Point
	Radius   float64
	Sampling time.Duration
	GPSNoise float64
	SpeedMin float64 // m/s
	SpeedMax float64
	PauseMin time.Duration
	PauseMax time.Duration
	Start    time.Time
}

// DefaultRandomWaypointConfig returns the control workload configuration.
func DefaultRandomWaypointConfig() RandomWaypointConfig {
	return RandomWaypointConfig{
		Seed:     1,
		Users:    30,
		Legs:     10,
		Center:   geo.Point{Lat: 45.7640, Lng: 4.8357},
		Radius:   3000,
		Sampling: 30 * time.Second,
		GPSNoise: 5,
		SpeedMin: 1,
		SpeedMax: 15,
		PauseMin: 2 * time.Minute,
		PauseMax: 20 * time.Minute,
		Start:    time.Date(2015, 6, 29, 8, 0, 0, 0, time.UTC),
	}
}

func (c RandomWaypointConfig) validate() error {
	switch {
	case c.Users <= 0:
		return errors.New("synth: Users must be positive")
	case c.Legs <= 0:
		return errors.New("synth: Legs must be positive")
	case c.Radius <= 0:
		return errors.New("synth: Radius must be positive")
	case c.Sampling <= 0:
		return errors.New("synth: Sampling must be positive")
	case c.GPSNoise < 0:
		return errors.New("synth: GPSNoise must be non-negative")
	case c.SpeedMin <= 0 || c.SpeedMax < c.SpeedMin:
		return errors.New("synth: need 0 < SpeedMin <= SpeedMax")
	case c.PauseMin < 0 || c.PauseMax < c.PauseMin:
		return errors.New("synth: need 0 <= PauseMin <= PauseMax")
	}
	return c.Center.Validate()
}

// RandomWaypoint generates the random-waypoint workload.
func RandomWaypoint(cfg RandomWaypointConfig) (*Generated, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("random waypoint: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var traces []*trace.Trace
	var stays []Stay
	for u := 0; u < cfg.Users; u++ {
		user := fmt.Sprintf("rw%03d", u)
		b := newBuilder(rng, cfg.Sampling, cfg.GPSNoise, user)
		b.now = cfg.Start
		b.cur = randomPlace(rng, cfg.Center, cfg.Radius)
		b.emit() // initial observation
		for leg := 0; leg < cfg.Legs; leg++ {
			dest := randomPlace(rng, cfg.Center, cfg.Radius)
			speed := cfg.SpeedMin + rng.Float64()*(cfg.SpeedMax-cfg.SpeedMin)
			b.travel(dest, speed)
			pause := cfg.PauseMin + time.Duration(rng.Int63n(int64(cfg.PauseMax-cfg.PauseMin)+1))
			b.stayUntil(dest, b.now.Add(pause))
		}
		tr, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("random waypoint: %s: %w", user, err)
		}
		traces = append(traces, tr)
		stays = append(stays, b.stays...)
	}
	ds, err := trace.NewDataset(traces)
	if err != nil {
		return nil, fmt.Errorf("random waypoint: %w", err)
	}
	return &Generated{Dataset: ds, Stays: stays}, nil
}

// randomPlace returns a point uniform over the disk of the given radius.
func randomPlace(rng *rand.Rand, center geo.Point, radius float64) geo.Point {
	// sqrt for uniform area density.
	r := radius * math.Sqrt(rng.Float64())
	theta := rng.Float64() * 360
	return geo.Destination(center, theta, r)
}

func randomPlaces(rng *rand.Rand, center geo.Point, radius float64, n int) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = randomPlace(rng, center, radius)
	}
	return out
}

// jitterSpeed returns mean scaled by a uniform factor in [0.8, 1.2).
func jitterSpeed(rng *rand.Rand, mean float64) float64 {
	return mean * (0.8 + rng.Float64()*0.4)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
