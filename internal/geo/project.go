package geo

import "math"

// XY is a point in a local planar (east-north) coordinate frame, in
// meters. X grows eastward, Y grows northward.
type XY struct {
	X float64
	Y float64
}

// Norm returns the Euclidean norm of the vector.
func (v XY) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Sub returns v - w.
func (v XY) Sub(w XY) XY { return XY{X: v.X - w.X, Y: v.Y - w.Y} }

// Add returns v + w.
func (v XY) Add(w XY) XY { return XY{X: v.X + w.X, Y: v.Y + w.Y} }

// Scale returns v scaled by s.
func (v XY) Scale(s float64) XY { return XY{X: v.X * s, Y: v.Y * s} }

// Dist returns the Euclidean distance between v and w in meters.
func (v XY) Dist(w XY) float64 { return v.Sub(w).Norm() }

// Projector converts between WGS84 coordinates and a local planar frame
// centred at an origin point (azimuthal equirectangular projection).
//
// The projection is accurate to well under 0.1% within ~100 km of the
// origin, which is more than enough for city-scale mobility data; it is
// cheap, invertible, and — critically for the anonymization mechanisms —
// locally distance-preserving.
//
// A Projector is immutable and safe for concurrent use.
type Projector struct {
	origin Point
	cosLat float64
}

// NewProjector returns a Projector with the given origin.
func NewProjector(origin Point) *Projector {
	return &Projector{origin: origin, cosLat: math.Cos(origin.latRad())}
}

// ToXY projects a WGS84 point into the local frame.
func (pr *Projector) ToXY(p Point) XY {
	return XY{
		X: (p.lngRad() - pr.origin.lngRad()) * pr.cosLat * EarthRadius,
		Y: (p.latRad() - pr.origin.latRad()) * EarthRadius,
	}
}

// ToPoint unprojects a local-frame point back to WGS84.
func (pr *Projector) ToPoint(v XY) Point {
	lat := pr.origin.latRad() + v.Y/EarthRadius
	lng := pr.origin.lngRad()
	if pr.cosLat != 0 {
		lng += v.X / (EarthRadius * pr.cosLat)
	}
	return Point{Lat: lat * radToDeg, Lng: normalizeLng(lng * radToDeg)}
}

// Offset returns the point obtained by moving p by (dx, dy) meters
// east/north, using a projection centred at p itself (exact for the
// displacement magnitudes used in this repository).
func Offset(p Point, dx, dy float64) Point {
	return NewProjector(p).ToPoint(XY{X: dx, Y: dy})
}
