// Package poi implements point-of-interest extraction from mobility
// traces: the stay-point detection of Li et al. / Hariharan & Toyama,
// followed by the density-joinable clustering step of Gambs et al.'s
// "Show Me How You Move" attack pipeline [1] that aggregates repeated
// stays at the same place into POIs.
//
// The same code serves two roles in mobipriv: it is the adversary of the
// POI-retrieval attack (run on published data) and the oracle used to
// characterize raw datasets.
package poi

import (
	"errors"
	"fmt"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/trace"
)

// Config parameterizes stay-point detection.
type Config struct {
	// MaxDiameter is the spatial threshold in meters: a stay is a maximal
	// run of consecutive points all within MaxDiameter of the run's first
	// point.
	MaxDiameter float64
	// MinDuration is the minimal time span of a run to count as a stay.
	MinDuration time.Duration
	// MergeRadius is the clustering radius in meters used by Extract to
	// merge stays into POIs; stays whose centers are within MergeRadius
	// are joined transitively. If zero, MaxDiameter is used.
	MergeRadius float64
}

// DefaultConfig returns the attack configuration used across the
// experiments (the classic 200 m / 5 min setting of the POI-retrieval
// literature).
func DefaultConfig() Config {
	return Config{MaxDiameter: 200, MinDuration: 5 * time.Minute}
}

// Validate checks the configuration; every consumer of a Config — the
// batch extractor here, the streaming detector in internal/risk — runs
// the same checks.
func (c Config) Validate() error {
	if c.MaxDiameter <= 0 {
		return errors.New("poi: MaxDiameter must be positive")
	}
	if c.MinDuration <= 0 {
		return errors.New("poi: MinDuration must be positive")
	}
	if c.MergeRadius < 0 {
		return errors.New("poi: MergeRadius must be non-negative")
	}
	return nil
}

// EffectiveMergeRadius returns the clustering radius Extract actually
// uses: MergeRadius when set, MaxDiameter otherwise.
func (c Config) EffectiveMergeRadius() float64 {
	if c.MergeRadius > 0 {
		return c.MergeRadius
	}
	return c.MaxDiameter
}

// Stay is one detected stop: the user remained within a small disk for
// at least MinDuration.
type Stay struct {
	Center geo.Point // centroid of the contributing observations
	Enter  time.Time // first observation of the run
	Leave  time.Time // last observation of the run
	Count  int       // number of contributing observations
}

// Duration returns Leave - Enter.
func (s Stay) Duration() time.Duration { return s.Leave.Sub(s.Enter) }

// Stays runs stay-point detection on a single trace.
//
// The algorithm is the standard one: anchor at point i, extend j while
// every point stays within MaxDiameter of point i; when the extension
// stops, the run [i, j) is a stay iff it spans at least MinDuration.
// Detection then resumes at j (runs never overlap).
func Stays(tr *trace.Trace, cfg Config) ([]Stay, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr == nil || tr.Len() == 0 {
		return nil, nil
	}
	var out []Stay
	pts := tr.Points
	i := 0
	for i < len(pts) {
		j := i + 1
		for j < len(pts) && geo.FastDistance(pts[i].Point, pts[j].Point) <= cfg.MaxDiameter {
			j++
		}
		span := pts[j-1].Time.Sub(pts[i].Time)
		if span >= cfg.MinDuration {
			centroid, _ := geo.Centroid(positions(pts[i:j]))
			out = append(out, Stay{
				Center: centroid,
				Enter:  pts[i].Time,
				Leave:  pts[j-1].Time,
				Count:  j - i,
			})
			i = j
			continue
		}
		i++
	}
	return out, nil
}

func positions(pts []trace.Point) []geo.Point {
	out := make([]geo.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Point
	}
	return out
}

// POI is a cluster of stays: a place the user visits, with aggregate
// statistics used for ranking and matching.
type POI struct {
	Center    geo.Point     // time-weighted centroid of the stays
	Visits    int           // number of stays merged into this POI
	TotalTime time.Duration // total time spent across all visits
}

// Cluster merges stays whose centers are within mergeRadius of each
// other (transitively, via union-find) into POIs. The POI center is the
// duration-weighted centroid of its stays; output order is by decreasing
// TotalTime, ties broken by visit count then latitude/longitude for
// determinism.
func Cluster(stays []Stay, mergeRadius float64) []POI {
	if len(stays) == 0 {
		return nil
	}
	parent := make([]int, len(stays))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < len(stays); i++ {
		for j := i + 1; j < len(stays); j++ {
			if geo.FastDistance(stays[i].Center, stays[j].Center) <= mergeRadius {
				union(i, j)
			}
		}
	}
	groups := make(map[int][]Stay)
	for i, s := range stays {
		r := find(i)
		groups[r] = append(groups[r], s)
	}
	out := make([]POI, 0, len(groups))
	for _, group := range groups {
		out = append(out, aggregate(group))
	}
	sortPOIs(out)
	return out
}

// aggregate folds a group of stays into one POI.
func aggregate(group []Stay) POI {
	var total time.Duration
	var wx, wy, wsum float64
	pr := geo.NewProjector(group[0].Center)
	for _, s := range group {
		d := s.Duration()
		total += d
		w := d.Seconds()
		if w <= 0 {
			w = 1 // zero-duration stays still count positionally
		}
		v := pr.ToXY(s.Center)
		wx += v.X * w
		wy += v.Y * w
		wsum += w
	}
	center := pr.ToPoint(geo.XY{X: wx / wsum, Y: wy / wsum})
	return POI{Center: center, Visits: len(group), TotalTime: total}
}

func sortPOIs(pois []POI) {
	// Insertion sort: POI lists are short (a handful per user).
	for i := 1; i < len(pois); i++ {
		for j := i; j > 0 && lessPOI(pois[j], pois[j-1]); j-- {
			pois[j], pois[j-1] = pois[j-1], pois[j]
		}
	}
}

// lessPOI orders by decreasing total time, then decreasing visits, then
// position (for full determinism).
func lessPOI(a, b POI) bool {
	if a.TotalTime != b.TotalTime {
		return a.TotalTime > b.TotalTime
	}
	if a.Visits != b.Visits {
		return a.Visits > b.Visits
	}
	if a.Center.Lat != b.Center.Lat {
		return a.Center.Lat < b.Center.Lat
	}
	return a.Center.Lng < b.Center.Lng
}

// Extract runs the full pipeline — stay detection then clustering — on a
// single trace, returning the user's POIs.
func Extract(tr *trace.Trace, cfg Config) ([]POI, error) {
	stays, err := Stays(tr, cfg)
	if err != nil {
		return nil, fmt.Errorf("extract POIs of %q: %w", userOf(tr), err)
	}
	return Cluster(stays, cfg.EffectiveMergeRadius()), nil
}

// ExtractAll runs Extract over a whole dataset, returning the POIs per
// user identifier.
func ExtractAll(d *trace.Dataset, cfg Config) (map[string][]POI, error) {
	out := make(map[string][]POI, d.Len())
	for _, tr := range d.Traces() {
		pois, err := Extract(tr, cfg)
		if err != nil {
			return nil, err
		}
		out[tr.User] = pois
	}
	return out, nil
}

func userOf(tr *trace.Trace) string {
	if tr == nil {
		return "<nil>"
	}
	return tr.User
}
