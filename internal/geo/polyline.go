package geo

import "errors"

// ErrEmptyPolyline reports an operation on a polyline without vertices.
var ErrEmptyPolyline = errors.New("geo: empty polyline")

// Polyline is an ordered sequence of WGS84 vertices together with the
// cumulative great-circle arc length at each vertex. It supports
// constant-time length queries and logarithmic-time point-at-distance
// queries, which are the workhorses of the speed-smoothing mechanism.
//
// A Polyline is immutable after construction and safe for concurrent use.
type Polyline struct {
	pts []Point
	cum []float64 // cum[i] = arc length from pts[0] to pts[i]
}

// NewPolyline builds a polyline from the given vertices. The slice is
// copied. At least one vertex is required.
func NewPolyline(pts []Point) (*Polyline, error) {
	if len(pts) == 0 {
		return nil, ErrEmptyPolyline
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	cum := make([]float64, len(cp))
	for i := 1; i < len(cp); i++ {
		cum[i] = cum[i-1] + Distance(cp[i-1], cp[i])
	}
	return &Polyline{pts: cp, cum: cum}, nil
}

// Length returns the total arc length in meters.
func (pl *Polyline) Length() float64 { return pl.cum[len(pl.cum)-1] }

// PointAt returns the point at the given arc-length distance (meters)
// from the start, interpolating along the segment containing it.
// Distances are clamped to [0, Length()].
func (pl *Polyline) PointAt(dist float64) Point {
	if dist <= 0 {
		return pl.pts[0]
	}
	total := pl.Length()
	if dist >= total {
		return pl.pts[len(pl.pts)-1]
	}
	// Binary search for the segment whose cumulative range contains dist.
	lo, hi := 0, len(pl.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if pl.cum[mid] < dist {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Now cum[lo-1] < dist <= cum[lo]; interpolate on segment lo-1 -> lo.
	i := lo - 1
	segLen := pl.cum[lo] - pl.cum[i]
	if segLen <= 0 {
		return pl.pts[lo]
	}
	f := (dist - pl.cum[i]) / segLen
	return Interpolate(pl.pts[i], pl.pts[lo], f)
}
