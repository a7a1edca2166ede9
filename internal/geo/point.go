// Package geo provides the geodesic primitives used throughout mobipriv:
// WGS84 coordinates, great-circle distances and bearings, destination
// points, local planar projections, bounding boxes, polyline
// (arc-length) arithmetic, the nearest-segment search of a path
// (SegmentIndex), and the radius join of two point sets (RadiusIndex)
// with the greedy one-to-one matching built on it (GreedyMatch). Both
// searches prune by a proven bound and return exactly what scanning
// every segment or every pair returns, bit for bit.
//
// All distances are expressed in meters and all angles in degrees unless
// stated otherwise. The package deliberately uses a spherical Earth model
// (mean radius): mobility traces span at most a few tens of kilometers,
// where the spherical error (<0.5%) is far below GPS noise.
package geo

import (
	"errors"
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in meters (IUGG mean radius R1).
const EarthRadius = 6371008.8

// Degree-radian conversion factors.
const (
	degToRad = math.Pi / 180
	radToDeg = 180 / math.Pi
)

// ErrInvalidCoordinate reports a latitude or longitude outside its legal
// range. It is returned (wrapped) by validation helpers.
var ErrInvalidCoordinate = errors.New("geo: invalid coordinate")

// Point is a WGS84 coordinate: latitude and longitude in decimal degrees.
//
// The zero value is the "null island" point (0, 0), which is a valid
// coordinate; code that needs a sentinel should track validity separately.
type Point struct {
	Lat float64 // latitude in degrees, in [-90, 90]
	Lng float64 // longitude in degrees, in [-180, 180]
}

// Validate checks that the point's coordinates lie in the legal WGS84
// ranges and are not NaN or infinite.
func (p Point) Validate() error {
	if math.IsNaN(p.Lat) || math.IsInf(p.Lat, 0) || p.Lat < -90 || p.Lat > 90 {
		return fmt.Errorf("%w: latitude %v out of [-90, 90]", ErrInvalidCoordinate, p.Lat)
	}
	if math.IsNaN(p.Lng) || math.IsInf(p.Lng, 0) || p.Lng < -180 || p.Lng > 180 {
		return fmt.Errorf("%w: longitude %v out of [-180, 180]", ErrInvalidCoordinate, p.Lng)
	}
	return nil
}

// String implements fmt.Stringer with 6 decimal places (~0.1 m resolution).
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lng)
}

// Equal reports whether two points are exactly equal.
func (p Point) Equal(q Point) bool { return p.Lat == q.Lat && p.Lng == q.Lng }

// latRad and lngRad return the coordinates in radians.
func (p Point) latRad() float64 { return p.Lat * degToRad }
func (p Point) lngRad() float64 { return p.Lng * degToRad }

// Distance returns the great-circle (haversine) distance in meters
// between p and q.
func Distance(p, q Point) float64 {
	lat1, lat2 := p.latRad(), q.latRad()
	dLat := lat2 - lat1
	dLng := q.lngRad() - p.lngRad()
	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLng*sinLng
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// FastDistance returns the equirectangular approximation of the distance
// in meters between p and q. It is ~5x cheaper than Distance and accurate
// to better than 0.1% for distances under ~100 km away from the poles,
// which covers every workload in this repository. Use it in inner loops
// (clustering, indexing); use Distance when exactness matters.
func FastDistance(p, q Point) float64 {
	x := (q.lngRad() - p.lngRad()) * math.Cos((p.latRad()+q.latRad())/2)
	y := q.latRad() - p.latRad()
	return EarthRadius * math.Sqrt(x*x+y*y)
}

// Bearing returns the initial great-circle bearing in degrees (clockwise
// from true north, in [0, 360)) of the path from p to q.
func Bearing(p, q Point) float64 {
	lat1, lat2 := p.latRad(), q.latRad()
	dLng := q.lngRad() - p.lngRad()
	y := math.Sin(dLng) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLng)
	b := math.Atan2(y, x) * radToDeg
	return math.Mod(b+360, 360)
}

// Destination returns the point reached by travelling dist meters from p
// along the given initial bearing (degrees clockwise from north) on a
// great circle.
func Destination(p Point, bearingDeg, dist float64) Point {
	if dist == 0 {
		return p
	}
	ang := dist / EarthRadius // angular distance
	brng := bearingDeg * degToRad
	lat1 := p.latRad()
	lng1 := p.lngRad()
	sinLat2 := math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(brng)
	lat2 := math.Asin(clamp(sinLat2, -1, 1))
	y := math.Sin(brng) * math.Sin(ang) * math.Cos(lat1)
	x := math.Cos(ang) - math.Sin(lat1)*sinLat2
	lng2 := lng1 + math.Atan2(y, x)
	return Point{Lat: lat2 * radToDeg, Lng: normalizeLng(lng2 * radToDeg)}
}

// Interpolate returns the point a fraction f of the way along the great
// circle from p to q. f is clamped to [0, 1]; Interpolate(p, q, 0) == p and
// Interpolate(p, q, 1) == q up to floating-point error.
func Interpolate(p, q Point, f float64) Point {
	f = clamp(f, 0, 1)
	if f == 0 || p.Equal(q) {
		return p
	}
	if f == 1 {
		return q
	}
	// Spherical linear interpolation (slerp) on unit vectors.
	d := Distance(p, q) / EarthRadius // angular distance
	if d < 1e-12 {
		return p
	}
	sinD := math.Sin(d)
	a := math.Sin((1-f)*d) / sinD
	b := math.Sin(f*d) / sinD
	lat1, lng1 := p.latRad(), p.lngRad()
	lat2, lng2 := q.latRad(), q.lngRad()
	x := a*math.Cos(lat1)*math.Cos(lng1) + b*math.Cos(lat2)*math.Cos(lng2)
	y := a*math.Cos(lat1)*math.Sin(lng1) + b*math.Cos(lat2)*math.Sin(lng2)
	z := a*math.Sin(lat1) + b*math.Sin(lat2)
	lat := math.Atan2(z, math.Sqrt(x*x+y*y))
	lng := math.Atan2(y, x)
	return Point{Lat: lat * radToDeg, Lng: lng * radToDeg}
}

// Midpoint returns the great-circle midpoint of p and q.
func Midpoint(p, q Point) Point { return Interpolate(p, q, 0.5) }

// Centroid returns the spherical centroid (normalized mean of unit
// vectors) of the given points. It returns the zero Point and false when
// pts is empty or the points cancel out (antipodal configurations).
func Centroid(pts []Point) (Point, bool) {
	var acc CentroidAcc
	for _, p := range pts {
		acc.Add(p)
	}
	return acc.Result()
}

// CentroidAcc accumulates a spherical centroid one point at a time —
// the streaming form of Centroid. Adding the same points in the same
// order produces the bit-identical result, which is what lets the
// incremental stay detector (internal/risk) compact a run of buffered
// observations into constant state without drifting from the batch
// computation. The zero value is ready to use.
type CentroidAcc struct {
	x, y, z float64
	n       int
}

// Add folds one point into the accumulator.
func (a *CentroidAcc) Add(p Point) {
	lat, lng := p.latRad(), p.lngRad()
	a.x += math.Cos(lat) * math.Cos(lng)
	a.y += math.Cos(lat) * math.Sin(lng)
	a.z += math.Sin(lat)
	a.n++
}

// N returns the number of points added.
func (a *CentroidAcc) N() int { return a.n }

// Result returns the centroid of the points added so far. It returns
// the zero Point and false when no point was added or the points cancel
// out (antipodal configurations).
func (a *CentroidAcc) Result() (Point, bool) {
	if a.n == 0 {
		return Point{}, false
	}
	n := float64(a.n)
	x, y, z := a.x/n, a.y/n, a.z/n
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-12 {
		return Point{}, false
	}
	lat := math.Atan2(z, math.Sqrt(x*x+y*y))
	lng := math.Atan2(y, x)
	return Point{Lat: lat * radToDeg, Lng: lng * radToDeg}, true
}

func normalizeLng(lng float64) float64 {
	for lng > 180 {
		lng -= 360
	}
	for lng < -180 {
		lng += 360
	}
	return lng
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
