package geo

import (
	"math"
	"testing"
)

// zigzag builds a polyline of n segments of the given length with
// alternating bearings, starting at lyon.
func zigzag(n int, segLen float64) []Point {
	pts := make([]Point, 0, n+1)
	p := lyon
	pts = append(pts, p)
	for i := 0; i < n; i++ {
		brg := 45.0
		if i%2 == 1 {
			brg = 135
		}
		p = Destination(p, brg, segLen)
		pts = append(pts, p)
	}
	return pts
}

func TestNewPolylineErrors(t *testing.T) {
	if _, err := NewPolyline(nil); err == nil {
		t.Fatal("NewPolyline(nil) should fail")
	}
	if _, err := NewPolyline([]Point{lyon}); err != nil {
		t.Fatalf("single-vertex polyline should be allowed: %v", err)
	}
}

func TestPolylineLength(t *testing.T) {
	pts := zigzag(10, 100)
	pl, err := NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Length(); math.Abs(got-1000) > 0.01 {
		t.Fatalf("Length = %v, want 1000", got)
	}
	if len(pl.pts) != 11 {
		t.Fatalf("%d vertices, want 11", len(pl.pts))
	}
	if got := pl.cum[5]; math.Abs(got-500) > 0.01 {
		t.Fatalf("cum[5] = %v, want 500", got)
	}
}

func TestPolylineImmutable(t *testing.T) {
	pts := zigzag(3, 50)
	pl, err := NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	orig := pl.pts[0]
	pts[0] = Offset(lyon, 9999, 9999)
	if !pl.pts[0].Equal(orig) {
		t.Fatal("polyline must copy its input slice")
	}
}

func TestPointAt(t *testing.T) {
	pl, err := NewPolyline(zigzag(4, 250))
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.PointAt(-5); !got.Equal(pl.pts[0]) {
		t.Error("PointAt(<0) should clamp to start")
	}
	if got := pl.PointAt(99999); !got.Equal(pl.pts[4]) {
		t.Error("PointAt(>len) should clamp to end")
	}
	// A point exactly at a vertex distance.
	if got := pl.PointAt(250); FastDistance(got, pl.pts[1]) > 0.01 {
		t.Errorf("PointAt(250) = %v, want vertex 1", got)
	}
	// A mid-segment point is 125 m from both surrounding vertices.
	m := pl.PointAt(125)
	if d := Distance(pl.pts[0], m); math.Abs(d-125) > 0.05 {
		t.Errorf("PointAt(125): distance from v0 = %v", d)
	}
}

func TestPointAtDegenerateSegment(t *testing.T) {
	// Repeated vertices create zero-length segments; PointAt must not
	// divide by zero.
	pts := []Point{lyon, lyon, Destination(lyon, 90, 100), lyon}
	pl, err := NewPolyline(pts)
	if err != nil {
		t.Fatal(err)
	}
	got := pl.PointAt(50)
	if d := Distance(lyon, got); math.Abs(d-50) > 0.05 {
		t.Fatalf("PointAt(50) over degenerate segment: %v m from start", d)
	}
}

func BenchmarkDistance(b *testing.B) {
	q := Destination(lyon, 60, 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Distance(lyon, q)
	}
}

func BenchmarkFastDistance(b *testing.B) {
	q := Destination(lyon, 60, 5000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FastDistance(lyon, q)
	}
}

func BenchmarkPointAt(b *testing.B) {
	pl, err := NewPolyline(zigzag(1000, 20))
	if err != nil {
		b.Fatal(err)
	}
	total := pl.Length()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pl.PointAt(float64(i%1000) / 1000 * total)
	}
}
