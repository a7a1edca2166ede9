package geo

import (
	"strings"
	"testing"
)

func TestBBoxEmpty(t *testing.T) {
	var b BBox
	if !b.IsEmpty() {
		t.Fatal("zero BBox should be empty")
	}
	if b.Contains(lyon) {
		t.Fatal("empty box should contain nothing")
	}
	if got := b.String(); got != "BBox(empty)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestBBoxExtendContains(t *testing.T) {
	var b BBox
	b.Extend(lyon)
	if !b.Contains(lyon) {
		t.Fatal("box should contain its seed point")
	}
	q := Offset(lyon, 1000, 1000)
	if b.Contains(q) {
		t.Fatal("box should not contain distant point yet")
	}
	b.Extend(q)
	if !b.Contains(q) || !b.Contains(lyon) {
		t.Fatal("box should contain both points after Extend")
	}
	mid := Midpoint(lyon, q)
	if !b.Contains(mid) {
		t.Fatal("box should contain midpoint")
	}
}

func TestBoundsOf(t *testing.T) {
	if _, ok := BoundsOf(nil); ok {
		t.Fatal("BoundsOf(nil) should report not-ok")
	}
	pts := []Point{lyon, Offset(lyon, 500, -300), Offset(lyon, -200, 800)}
	b, ok := BoundsOf(pts)
	if !ok {
		t.Fatal("BoundsOf should succeed")
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("bounds should contain %v", p)
		}
	}
}

func TestBBoxUnion(t *testing.T) {
	a := NewBBox(lyon, Offset(lyon, 100, 100))
	c := NewBBox(Offset(lyon, 500, 500), Offset(lyon, 600, 600))
	u := a.Union(c)
	if !u.Contains(lyon) || !u.Contains(Offset(lyon, 600, 600)) {
		t.Fatal("union should contain corners of both boxes")
	}
	var empty BBox
	if got := empty.Union(a); got != a {
		t.Fatal("empty.Union(a) should be a")
	}
	if got := a.Union(empty); got != a {
		t.Fatal("a.Union(empty) should be a")
	}
}

func TestBBoxExtents(t *testing.T) {
	b := NewBBox(lyon, Offset(lyon, 1000, 2000))
	midLat := (b.MinLat + b.MaxLat) / 2
	if w := Distance(Point{Lat: midLat, Lng: b.MinLng}, Point{Lat: midLat, Lng: b.MaxLng}); w < 995 || w > 1005 {
		t.Errorf("width = %v, want ~1000", w)
	}
	if h := Distance(Point{Lat: b.MinLat, Lng: b.MinLng}, Point{Lat: b.MaxLat, Lng: b.MinLng}); h < 1995 || h > 2005 {
		t.Errorf("height = %v, want ~2000", h)
	}
	c := b.Center()
	if d := FastDistance(c, Offset(lyon, 500, 1000)); d > 2 {
		t.Errorf("Center off by %v m", d)
	}
	if !strings.HasPrefix(b.String(), "BBox[") {
		t.Errorf("String() = %q", b.String())
	}
}
