package trace

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mobipriv/internal/geo"
)

var (
	t0     = time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	origin = geo.Point{Lat: 45.7640, Lng: 4.8357}
)

// lineTrace builds a trace of n points moving east at the given speed
// (m/s) with one point per step seconds.
func lineTrace(user string, n int, speed float64, step time.Duration) *Trace {
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		dist := speed * float64(i) * step.Seconds()
		pts[i] = Point{Point: geo.Destination(origin, 90, dist), Time: t0.Add(time.Duration(i) * step)}
	}
	return MustNew(user, pts)
}

func TestNewValidation(t *testing.T) {
	good := []Point{P(45, 4, t0), P(45.001, 4, t0.Add(time.Minute))}
	tests := []struct {
		name    string
		user    string
		pts     []Point
		wantErr error
	}{
		{name: "ok", user: "u1", pts: good, wantErr: nil},
		{name: "no user", user: "", pts: good, wantErr: ErrNoUser},
		{name: "empty", user: "u1", pts: nil, wantErr: ErrEmptyTrace},
		{
			name: "duplicate timestamp", user: "u1",
			pts:     []Point{P(45, 4, t0), P(45.1, 4, t0)},
			wantErr: ErrUnsortedTrace,
		},
		{
			name: "bad coordinate", user: "u1",
			pts:     []Point{P(95, 4, t0)},
			wantErr: geo.ErrInvalidCoordinate,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.user, tt.pts)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewSortsPoints(t *testing.T) {
	pts := []Point{P(45.002, 4, t0.Add(2*time.Minute)), P(45, 4, t0), P(45.001, 4, t0.Add(time.Minute))}
	tr, err := New("u1", pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < tr.Len(); i++ {
		if !tr.Points[i-1].Time.Before(tr.Points[i].Time) {
			t.Fatal("points not sorted after New")
		}
	}
	// Input slice must not be shared.
	pts[0] = P(10, 10, t0.Add(time.Hour))
	if tr.Points[2].Lat == 10 {
		t.Fatal("New must copy the input slice")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid input")
		}
	}()
	MustNew("", nil)
}

func TestDurationLengthSpeed(t *testing.T) {
	// 10 points, 10 m/s, 1 point per 10 s: 90 s total, 900 m.
	tr := lineTrace("u1", 10, 10, 10*time.Second)
	if got := tr.Duration(); got != 90*time.Second {
		t.Errorf("Duration = %v, want 90s", got)
	}
	if got := tr.Length(); math.Abs(got-900) > 0.5 {
		t.Errorf("Length = %v, want 900", got)
	}
	if got := tr.AverageSpeed(); math.Abs(got-10) > 0.01 {
		t.Errorf("AverageSpeed = %v, want 10", got)
	}
	speeds := tr.Speeds()
	if len(speeds) != 9 {
		t.Fatalf("Speeds len = %d, want 9", len(speeds))
	}
	for i, s := range speeds {
		if math.Abs(s-10) > 0.01 {
			t.Errorf("segment %d speed = %v, want 10", i, s)
		}
	}
}

func TestSinglePointTrace(t *testing.T) {
	tr := MustNew("u1", []Point{P(45, 4, t0)})
	if tr.Duration() != 0 || tr.Length() != 0 || tr.AverageSpeed() != 0 {
		t.Error("single-point trace should have zero duration/length/speed")
	}
	if tr.Speeds() != nil {
		t.Error("single-point trace should have nil Speeds")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := lineTrace("u1", 5, 5, time.Second)
	cp := tr.Clone()
	cp.Points[0] = P(0, 0, t0.Add(-time.Hour))
	cp.User = "other"
	if tr.Points[0].Lat == 0 || tr.User == "other" {
		t.Fatal("Clone must not share state")
	}
}

func TestCrop(t *testing.T) {
	tr := lineTrace("u1", 10, 10, 10*time.Second) // t0 .. t0+90s
	got := tr.Crop(t0.Add(20*time.Second), t0.Add(50*time.Second))
	if got == nil || got.Len() != 4 {
		t.Fatalf("Crop returned %v, want 4 points", got)
	}
	if got.Start().Time != t0.Add(20*time.Second) || got.End().Time != t0.Add(50*time.Second) {
		t.Error("Crop bounds are inclusive")
	}
	if tr.Crop(t0.Add(time.Hour), t0.Add(2*time.Hour)) != nil {
		t.Error("Crop outside span should return nil")
	}
}

func TestSplitByGap(t *testing.T) {
	pts := []Point{
		P(45, 4, t0),
		P(45.001, 4, t0.Add(time.Minute)),
		P(45.002, 4, t0.Add(30*time.Minute)), // 29-minute gap
		P(45.003, 4, t0.Add(31*time.Minute)),
	}
	tr := MustNew("u1", pts)
	parts := tr.SplitByGap(5 * time.Minute)
	if len(parts) != 2 {
		t.Fatalf("SplitByGap returned %d parts, want 2", len(parts))
	}
	if parts[0].Len() != 2 || parts[1].Len() != 2 {
		t.Errorf("part sizes = %d, %d, want 2, 2", parts[0].Len(), parts[1].Len())
	}
	if parts[0].User != "u1" || parts[1].User != "u1" {
		t.Error("parts must keep the user identifier")
	}
	// No gap: single part.
	if got := tr.SplitByGap(time.Hour); len(got) != 1 {
		t.Errorf("SplitByGap(1h) = %d parts, want 1", len(got))
	}
}

func TestAt(t *testing.T) {
	tr := lineTrace("u1", 10, 10, 10*time.Second)
	// Exactly on a sample.
	p, ok := tr.At(t0.Add(30 * time.Second))
	if !ok {
		t.Fatal("At within span should succeed")
	}
	if d := geo.Distance(p, tr.Points[3].Point); d > 0.01 {
		t.Errorf("At(sample time) off by %v m", d)
	}
	// Between samples: 35 s -> 350 m east.
	p, ok = tr.At(t0.Add(35 * time.Second))
	if !ok {
		t.Fatal("At between samples should succeed")
	}
	want := geo.Destination(origin, 90, 350)
	if d := geo.Distance(p, want); d > 0.5 {
		t.Errorf("At(35s) off by %v m", d)
	}
	// Outside the span.
	if _, ok := tr.At(t0.Add(-time.Second)); ok {
		t.Error("At before start should fail")
	}
	if _, ok := tr.At(t0.Add(time.Hour)); ok {
		t.Error("At after end should fail")
	}
}

func TestBoundsAndPolyline(t *testing.T) {
	tr := lineTrace("u1", 5, 10, 10*time.Second)
	box := tr.Bounds()
	if box.IsEmpty() {
		t.Fatal("Bounds should not be empty")
	}
	for _, p := range tr.Points {
		if !box.Contains(p.Point) {
			t.Errorf("bounds should contain %v", p)
		}
	}
	pl, err := geo.NewPolyline(tr.Positions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.Length()-tr.Length()) > 1e-9 {
		t.Errorf("polyline length %v != trace length %v", pl.Length(), tr.Length())
	}
}

func TestTraceString(t *testing.T) {
	tr := lineTrace("u1", 3, 10, time.Second)
	s := tr.String()
	if !strings.Contains(s, "u1") || !strings.Contains(s, "3 pts") {
		t.Errorf("String() = %q", s)
	}
	empty := &Trace{User: "x"}
	if !strings.Contains(empty.String(), "empty") {
		t.Errorf("empty String() = %q", empty.String())
	}
}
