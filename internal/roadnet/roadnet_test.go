package roadnet

import (
	"math"
	"testing"

	"mobipriv/internal/geo"
)

var center = geo.Point{Lat: 45.7640, Lng: 4.8357}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(center, 1, 5, 100); err == nil {
		t.Error("1 row accepted")
	}
	if _, err := NewGrid(center, 5, 1, 100); err == nil {
		t.Error("1 col accepted")
	}
	if _, err := NewGrid(center, 3, 3, 0); err == nil {
		t.Error("zero block accepted")
	}
}

func TestGridGeometry(t *testing.T) {
	n, err := NewGrid(center, 5, 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 35 {
		t.Fatalf("nodes = %d, want 35", n.NumNodes())
	}
	// The grid is centred: its bounding box center is near 'center'.
	var box geo.BBox
	for i := 0; i < n.NumNodes(); i++ {
		box.Extend(n.Node(i))
	}
	if d := geo.Distance(box.Center(), center); d > 5 {
		t.Errorf("grid center off by %v m", d)
	}
	midLat := (box.MinLat + box.MaxLat) / 2
	if w := geo.Distance(geo.Point{Lat: midLat, Lng: box.MinLng}, geo.Point{Lat: midLat, Lng: box.MaxLng}); math.Abs(w-6*200) > 5 {
		t.Errorf("grid width = %v, want 1200", w)
	}
}

func TestNearest(t *testing.T) {
	n, err := NewGrid(center, 3, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	// The center of a 3x3 grid is its middle node.
	mid := n.Nearest(center)
	if d := geo.Distance(n.Node(mid), center); d > 1 {
		t.Fatalf("nearest to center is %v m away", d)
	}
	// A point far north-east snaps to the NE corner.
	ne := n.Nearest(geo.Offset(center, 10000, 10000))
	if d := geo.Distance(n.Node(ne), geo.Offset(center, 500, 500)); d > 1 {
		t.Fatalf("NE corner snap off by %v m", d)
	}
}

func TestRouteStraightLine(t *testing.T) {
	n, err := NewGrid(center, 5, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	from := geo.Offset(center, -400, 0) // west edge, middle row
	to := geo.Offset(center, 400, 0)    // east edge, middle row
	route, err := n.Route(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) < 2 {
		t.Fatalf("route too short: %d", len(route))
	}
	// Route length equals the grid distance (800 m straight along the row;
	// diagonals could shorten nothing here).
	var total float64
	for i := 1; i < len(route); i++ {
		total += geo.Distance(route[i-1], route[i])
	}
	if total < 799 || total > 1000 {
		t.Fatalf("route length = %v, want ~800", total)
	}
	if d := geo.Distance(route[0], from); d > 250 {
		t.Errorf("route start %v m from origin", d)
	}
	if d := geo.Distance(route[len(route)-1], to); d > 250 {
		t.Errorf("route end %v m from destination", d)
	}
}

func TestRouteShortestProperty(t *testing.T) {
	// Dijkstra route is never longer than any simple L-shaped walk.
	n, err := NewGrid(center, 6, 6, 150)
	if err != nil {
		t.Fatal(err)
	}
	from := geo.Offset(center, -375, -375)
	to := geo.Offset(center, 375, 375)
	route, err := n.Route(from, to)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i := 1; i < len(route); i++ {
		total += geo.Distance(route[i-1], route[i])
	}
	manhattan := 750.0 + 750.0
	if total > manhattan+1 {
		t.Fatalf("route %v m longer than Manhattan %v m", total, manhattan)
	}
	// With diagonal avenues the diagonal route should beat Manhattan.
	if total >= manhattan {
		t.Logf("note: no diagonal advantage found (%v vs %v)", total, manhattan)
	}
}

func TestRouteDegenerate(t *testing.T) {
	n, err := NewGrid(center, 3, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	route, err := n.Route(center, geo.Offset(center, 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 1 {
		t.Fatalf("same-node route = %d points, want 1", len(route))
	}
}

func TestRouteAllPairsReachable(t *testing.T) {
	n, err := NewGrid(center, 4, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n.NumNodes(); i++ {
		for j := 0; j < n.NumNodes(); j++ {
			if _, err := n.Route(n.Node(i), n.Node(j)); err != nil {
				t.Fatalf("route %d->%d failed: %v", i, j, err)
			}
		}
	}
}

func BenchmarkRoute(b *testing.B) {
	n, err := NewGrid(center, 20, 20, 200)
	if err != nil {
		b.Fatal(err)
	}
	from := geo.Offset(center, -1900, -1900)
	to := geo.Offset(center, 1900, 1900)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Route(from, to); err != nil {
			b.Fatal(err)
		}
	}
}
