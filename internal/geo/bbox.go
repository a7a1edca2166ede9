package geo

import "fmt"

// BBox is an axis-aligned geographic bounding box. It does not support
// boxes spanning the antimeridian (no workload here crosses it).
//
// The zero value is an "empty" box that contains no points; extend it
// with Extend or build one with NewBBox / BoundsOf.
type BBox struct {
	MinLat, MinLng float64
	MaxLat, MaxLng float64
	nonEmpty       bool
}

// NewBBox returns the bounding box with the given corners, normalizing
// the min/max ordering.
func NewBBox(a, b Point) BBox {
	box := BBox{}
	box.Extend(a)
	box.Extend(b)
	return box
}

// BoundsOf returns the tightest bounding box containing all points.
// The second return value is false when pts is empty.
func BoundsOf(pts []Point) (BBox, bool) {
	var box BBox
	for _, p := range pts {
		box.Extend(p)
	}
	return box, box.nonEmpty
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool { return !b.nonEmpty }

// Extend grows the box to include p.
func (b *BBox) Extend(p Point) {
	if !b.nonEmpty {
		b.MinLat, b.MaxLat = p.Lat, p.Lat
		b.MinLng, b.MaxLng = p.Lng, p.Lng
		b.nonEmpty = true
		return
	}
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lng < b.MinLng {
		b.MinLng = p.Lng
	}
	if p.Lng > b.MaxLng {
		b.MaxLng = p.Lng
	}
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	out := b
	out.Extend(Point{Lat: o.MinLat, Lng: o.MinLng})
	out.Extend(Point{Lat: o.MaxLat, Lng: o.MaxLng})
	return out
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return b.nonEmpty &&
		p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lng >= b.MinLng && p.Lng <= b.MaxLng
}

// Center returns the geometric center of the box.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lng: (b.MinLng + b.MaxLng) / 2}
}

// String implements fmt.Stringer.
func (b BBox) String() string {
	if b.IsEmpty() {
		return "BBox(empty)"
	}
	return fmt.Sprintf("BBox[(%.6f,%.6f)..(%.6f,%.6f)]", b.MinLat, b.MinLng, b.MaxLat, b.MaxLng)
}
