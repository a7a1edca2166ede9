package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// lyon is a reference point used across the tests (the paper's authors'
// home town).
var lyon = Point{Lat: 45.7640, Lng: 4.8357}

// TestPointValidate pins the legal WGS84 ranges and the NaN and Inf
// rejections.
func TestPointValidate(t *testing.T) {
	tests := []struct {
		name    string
		lat     float64
		lng     float64
		wantErr bool
	}{
		{name: "valid", lat: 45.0, lng: 4.8, wantErr: false},
		{name: "zero", lat: 0, lng: 0, wantErr: false},
		{name: "extreme valid", lat: -90, lng: 180, wantErr: false},
		{name: "lat too high", lat: 90.01, lng: 0, wantErr: true},
		{name: "lat too low", lat: -91, lng: 0, wantErr: true},
		{name: "lng too high", lat: 0, lng: 180.5, wantErr: true},
		{name: "lng too low", lat: 0, lng: -181, wantErr: true},
		{name: "nan lat", lat: math.NaN(), lng: 0, wantErr: true},
		{name: "inf lng", lat: 0, lng: math.Inf(1), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := Point{Lat: tt.lat, Lng: tt.lng}.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate(%v, %v) error = %v, wantErr %v", tt.lat, tt.lng, err, tt.wantErr)
			}
		})
	}
}

func TestDistanceKnownValues(t *testing.T) {
	paris := Point{Lat: 48.8566, Lng: 2.3522}
	// Reference great-circle distance Lyon-Paris is ~392 km.
	d := Distance(lyon, paris)
	if d < 380e3 || d > 405e3 {
		t.Fatalf("Distance(lyon, paris) = %v m, want ~392 km", d)
	}
	if got := Distance(lyon, lyon); got != 0 {
		t.Fatalf("Distance(p, p) = %v, want 0", got)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	paris := Point{Lat: 48.8566, Lng: 2.3522}
	if d1, d2 := Distance(lyon, paris), Distance(paris, lyon); math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("distance not symmetric: %v vs %v", d1, d2)
	}
}

func TestFastDistanceAgreesWithHaversine(t *testing.T) {
	// Over city-scale distances the equirectangular approximation must
	// agree with haversine to within 0.1%.
	for _, dm := range []float64{10, 100, 1000, 10000, 50000} {
		q := Destination(lyon, 37, dm)
		exact := Distance(lyon, q)
		fast := FastDistance(lyon, q)
		if relErr := math.Abs(fast-exact) / exact; relErr > 1e-3 {
			t.Errorf("FastDistance at %v m: rel err %v > 0.1%%", dm, relErr)
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	for _, dist := range []float64{1, 50, 500, 5000, 100000} {
		for _, brg := range []float64{0, 45, 90, 135, 180, 270, 359} {
			q := Destination(lyon, brg, dist)
			got := Distance(lyon, q)
			if math.Abs(got-dist) > dist*1e-6+1e-6 {
				t.Errorf("Destination(%v, %v): distance %v, want %v", brg, dist, got, dist)
			}
		}
	}
}

func TestDestinationZeroDistance(t *testing.T) {
	if q := Destination(lyon, 123, 0); !q.Equal(lyon) {
		t.Fatalf("Destination with 0 distance = %v, want %v", q, lyon)
	}
}

func TestBearingCardinal(t *testing.T) {
	north := Destination(lyon, 0, 1000)
	east := Destination(lyon, 90, 1000)
	south := Destination(lyon, 180, 1000)
	west := Destination(lyon, 270, 1000)
	for _, tt := range []struct {
		name string
		to   Point
		want float64
	}{
		{"north", north, 0},
		{"east", east, 90},
		{"south", south, 180},
		{"west", west, 270},
	} {
		got := Bearing(lyon, tt.to)
		diff := math.Abs(got - tt.want)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 0.01 {
			t.Errorf("Bearing to %s = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestInterpolateEndpoints(t *testing.T) {
	q := Destination(lyon, 60, 2000)
	if got := Interpolate(lyon, q, 0); !got.Equal(lyon) {
		t.Errorf("Interpolate f=0 = %v, want start", got)
	}
	if got := Interpolate(lyon, q, 1); FastDistance(got, q) > 1e-6 {
		t.Errorf("Interpolate f=1 = %v, want end %v", got, q)
	}
	// Clamping behaviour.
	if got := Interpolate(lyon, q, -3); !got.Equal(lyon) {
		t.Errorf("Interpolate f=-3 = %v, want start", got)
	}
	if got := Interpolate(lyon, q, 7); FastDistance(got, q) > 1e-6 {
		t.Errorf("Interpolate f=7 = %v, want end", got)
	}
}

func TestInterpolateProportional(t *testing.T) {
	q := Destination(lyon, 200, 8000)
	total := Distance(lyon, q)
	for _, f := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		m := Interpolate(lyon, q, f)
		got := Distance(lyon, m)
		want := f * total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Interpolate f=%v: distance from start = %v, want %v", f, got, want)
		}
	}
}

func TestInterpolateDegenerate(t *testing.T) {
	if got := Interpolate(lyon, lyon, 0.5); !got.Equal(lyon) {
		t.Fatalf("Interpolate between identical points = %v, want %v", got, lyon)
	}
}

func TestMidpoint(t *testing.T) {
	q := Destination(lyon, 45, 6000)
	m := Midpoint(lyon, q)
	d1, d2 := Distance(lyon, m), Distance(m, q)
	if math.Abs(d1-d2) > 0.01 {
		t.Fatalf("Midpoint not equidistant: %v vs %v", d1, d2)
	}
}

func TestCentroid(t *testing.T) {
	if _, ok := Centroid(nil); ok {
		t.Fatal("Centroid(nil) should report not-ok")
	}
	c, ok := Centroid([]Point{lyon})
	if !ok || FastDistance(c, lyon) > 1e-6 {
		t.Fatalf("Centroid of single point = %v, %v", c, ok)
	}
	// Centroid of 4 symmetric offsets must be back at the center.
	pts := []Point{
		Offset(lyon, 100, 0),
		Offset(lyon, -100, 0),
		Offset(lyon, 0, 100),
		Offset(lyon, 0, -100),
	}
	c, ok = Centroid(pts)
	if !ok || FastDistance(c, lyon) > 0.01 {
		t.Fatalf("Centroid of symmetric points = %v (dist %v), want %v", c, FastDistance(c, lyon), lyon)
	}
}

// Property: triangle inequality for haversine distance on random
// city-scale points.
func TestDistanceTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy uint16) bool {
		a := Offset(lyon, float64(ax%20000), float64(ay%20000))
		b := Offset(lyon, float64(bx%20000), float64(by%20000))
		c := Offset(lyon, float64(cx%20000), float64(cy%20000))
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Destination followed by Bearing recovers the bearing.
func TestDestinationBearingRoundTrip(t *testing.T) {
	f := func(brg uint16, dist uint16) bool {
		b := float64(brg % 360)
		d := float64(dist%10000) + 1
		q := Destination(lyon, b, d)
		got := Bearing(lyon, q)
		diff := math.Abs(got - b)
		if diff > 180 {
			diff = 360 - diff
		}
		return diff < 0.1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{Lat: 1.5, Lng: -2.25}).String(); got != "(1.500000, -2.250000)" {
		t.Fatalf("String() = %q", got)
	}
}
