// Package trace defines the mobility-data model shared by every other
// package in mobipriv: timestamped GPS points, per-user traces and
// multi-user datasets, together with the validation, slicing and
// resampling operations the anonymization mechanisms are built on.
//
// The central invariant, enforced by Validate and assumed everywhere, is
// that the points of a Trace are sorted by strictly increasing time and
// carry valid WGS84 coordinates.
package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mobipriv/internal/geo"
)

// Common validation errors. They are wrapped with positional context, so
// match with errors.Is.
var (
	ErrEmptyTrace    = errors.New("trace: empty trace")
	ErrUnsortedTrace = errors.New("trace: points not in strictly increasing time order")
	ErrNoUser        = errors.New("trace: missing user identifier")
)

// Point is a single GPS observation: a WGS84 position and the instant at
// which it was recorded.
type Point struct {
	geo.Point
	Time time.Time
}

// P is a convenience constructor used heavily in tests and generators.
func P(lat, lng float64, t time.Time) Point {
	return Point{Point: geo.Point{Lat: lat, Lng: lng}, Time: t}
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("%s@%s", p.Point, p.Time.Format(time.RFC3339))
}

// Trace is the chronological sequence of observations of one user.
//
// User holds the published identifier (a pseudonym after anonymization).
// Points must satisfy the package invariant; mutating methods preserve
// it, and Validate checks it.
type Trace struct {
	User   string
	Points []Point
}

// New returns a trace for the given user with a defensive copy of pts,
// sorted by time. It fails if the user is empty, pts is empty, a
// coordinate is invalid, or two points share the same timestamp.
func New(user string, pts []Point) (*Trace, error) {
	if user == "" {
		return nil, ErrNoUser
	}
	if len(pts) == 0 {
		return nil, ErrEmptyTrace
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Time.Before(cp[j].Time) })
	tr := &Trace{User: user, Points: cp}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// MustNew is New that panics on error; for tests and constant data only.
func MustNew(user string, pts []Point) *Trace {
	tr, err := New(user, pts)
	if err != nil {
		panic(err)
	}
	return tr
}

// Validate checks the package invariant: non-empty user and points,
// valid coordinates, strictly increasing timestamps.
func (t *Trace) Validate() error {
	if t.User == "" {
		return ErrNoUser
	}
	if len(t.Points) == 0 {
		return fmt.Errorf("%w: user %q", ErrEmptyTrace, t.User)
	}
	for i, p := range t.Points {
		if err := p.Point.Validate(); err != nil {
			return fmt.Errorf("user %q point %d: %w", t.User, i, err)
		}
		if i > 0 && !t.Points[i-1].Time.Before(p.Time) {
			return fmt.Errorf("%w: user %q points %d..%d (%v >= %v)",
				ErrUnsortedTrace, t.User, i-1, i, t.Points[i-1].Time, p.Time)
		}
	}
	return nil
}

// Len returns the number of points.
func (t *Trace) Len() int { return len(t.Points) }

// Start returns the first observation. The trace must be non-empty.
func (t *Trace) Start() Point { return t.Points[0] }

// End returns the last observation. The trace must be non-empty.
func (t *Trace) End() Point { return t.Points[len(t.Points)-1] }

// Duration returns End().Time.Sub(Start().Time), or zero for traces with
// fewer than two points.
func (t *Trace) Duration() time.Duration {
	if len(t.Points) < 2 {
		return 0
	}
	return t.End().Time.Sub(t.Start().Time)
}

// Length returns the total travelled great-circle distance in meters.
func (t *Trace) Length() float64 {
	var total float64
	for i := 1; i < len(t.Points); i++ {
		total += geo.Distance(t.Points[i-1].Point, t.Points[i].Point)
	}
	return total
}

// AverageSpeed returns the mean speed in m/s over the whole trace, or 0
// if the duration is zero.
func (t *Trace) AverageSpeed() float64 {
	d := t.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return t.Length() / d
}

// Speeds returns the instantaneous speed (m/s) of each of the Len()-1
// segments. Zero-duration segments cannot occur under the invariant.
func (t *Trace) Speeds() []float64 {
	if len(t.Points) < 2 {
		return nil
	}
	out := make([]float64, len(t.Points)-1)
	for i := 1; i < len(t.Points); i++ {
		dt := t.Points[i].Time.Sub(t.Points[i-1].Time).Seconds()
		out[i-1] = geo.Distance(t.Points[i-1].Point, t.Points[i].Point) / dt
	}
	return out
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	cp := make([]Point, len(t.Points))
	copy(cp, t.Points)
	return &Trace{User: t.User, Points: cp}
}

// Positions returns the sequence of geographic positions (dropping time).
func (t *Trace) Positions() []geo.Point {
	out := make([]geo.Point, len(t.Points))
	for i, p := range t.Points {
		out[i] = p.Point
	}
	return out
}

// Bounds returns the bounding box of the trace.
func (t *Trace) Bounds() geo.BBox {
	box, _ := geo.BoundsOf(t.Positions())
	return box
}

// Crop returns a copy of the trace restricted to observations with
// from <= Time <= to, or nil if none fall in the window.
func (t *Trace) Crop(from, to time.Time) *Trace {
	var pts []Point
	for _, p := range t.Points {
		if !p.Time.Before(from) && !p.Time.After(to) {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return nil
	}
	return &Trace{User: t.User, Points: pts}
}

// SplitByGap cuts the trace wherever two consecutive observations are
// separated by more than maxGap, returning the resulting sub-traces in
// order. Each sub-trace keeps the original user identifier.
func (t *Trace) SplitByGap(maxGap time.Duration) []*Trace {
	if len(t.Points) == 0 {
		return nil
	}
	var out []*Trace
	start := 0
	for i := 1; i < len(t.Points); i++ {
		if t.Points[i].Time.Sub(t.Points[i-1].Time) > maxGap {
			out = append(out, &Trace{User: t.User, Points: append([]Point(nil), t.Points[start:i]...)})
			start = i
		}
	}
	out = append(out, &Trace{User: t.User, Points: append([]Point(nil), t.Points[start:]...)})
	return out
}

// At returns the interpolated position of the user at time ts, assuming
// straight-line constant-speed movement between consecutive
// observations. The boolean is false when ts falls outside the trace's
// time span.
func (t *Trace) At(ts time.Time) (geo.Point, bool) {
	if len(t.Points) == 0 || ts.Before(t.Start().Time) || ts.After(t.End().Time) {
		return geo.Point{}, false
	}
	// Binary search for the first point at or after ts.
	i := sort.Search(len(t.Points), func(i int) bool { return !t.Points[i].Time.Before(ts) })
	if i < len(t.Points) && t.Points[i].Time.Equal(ts) {
		return t.Points[i].Point, true
	}
	prev, next := t.Points[i-1], t.Points[i]
	span := next.Time.Sub(prev.Time).Seconds()
	f := ts.Sub(prev.Time).Seconds() / span
	return geo.Interpolate(prev.Point, next.Point, f), true
}

// String implements fmt.Stringer.
func (t *Trace) String() string {
	if len(t.Points) == 0 {
		return fmt.Sprintf("Trace(%s, empty)", t.User)
	}
	return fmt.Sprintf("Trace(%s, %d pts, %s..%s, %.0f m)",
		t.User, len(t.Points),
		t.Start().Time.Format(time.RFC3339), t.End().Time.Format(time.RFC3339),
		t.Length())
}
