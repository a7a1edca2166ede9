package geo

import "math"

// segGroup is the number of consecutive segments that share one
// bounding box in a SegmentIndex.
const segGroup = 16

// Slack on a group's lower bound: it is shrunk by this relative
// fraction and then by this many meters before it may prune. The
// rounding of one segment distance is a few ulps of coordinates no
// larger than the Earth's circumference, far below both.
const (
	boundRelSlack = 1e-9
	boundAbsSlack = 1e-6 // meters
)

// SegmentIndex answers "how far is p from this path?" for a fixed path
// of WGS84 vertices: the minimal distance in meters from p to any of
// its segments, each measured in a local planar frame centred at the
// segment's first vertex (exact to well under 0.1% at city scale). A
// single-vertex path degenerates to the great-circle point distance.
//
// The answer is bit-identical to scanning every segment, because every
// segment that is scanned goes through the same operations in the same
// order, and a segment is skipped only when a lower bound proves it
// cannot beat the best distance found so far. Segments are grouped
// sixteen at a time; a group's bound is R·√((cmin·Δλ)² + Δφ²), where Δφ
// and Δλ are the probe's radian offsets from the group's lat/lng box
// and cmin is the smallest cos(start latitude) in the group. Every
// point of a segment is a lat/lng-linear interpolation in that
// segment's equirectangular frame, so it lies in the box and no
// segment is nearer than its group's bound. The bound is shrunk by a
// relative 1e-9 and an absolute 1 µm before it may prune.
//
// DistanceTo allocates nothing. It reuses a scratch buffer, so a
// SegmentIndex must not be queried from several goroutines at once.
type SegmentIndex struct {
	only   Point // the vertex of a single-vertex path
	segs   []segment
	groups []segBox
	bounds []float64 // per-group lower bounds of the current query
}

// segment holds one segment [a, b] in the frame of a: everything the
// distance needs that does not depend on the probe.
type segment struct {
	lat, lng float64 // a in radians
	cos      float64 // cos of a's latitude
	bx, by   float64 // b in a's frame, meters
	ab2      float64 // bx² + by²
}

// segBox bounds a group of consecutive segments.
type segBox struct {
	minLat, maxLat, minLng, maxLng float64 // radians
	cmin                           float64 // smallest |cos| of the group's segments
}

// NewSegmentIndex indexes the path of n vertices, the i-th being at(i).
// At least one vertex is required.
func NewSegmentIndex(n int, at func(i int) Point) (*SegmentIndex, error) {
	if n <= 0 {
		return nil, ErrEmptyPolyline
	}
	ix := &SegmentIndex{only: at(0)}
	if n == 1 {
		return ix, nil
	}
	ngroups := (n - 1 + segGroup - 1) / segGroup
	ix.segs = make([]segment, n-1)
	ix.groups = make([]segBox, ngroups)
	ix.bounds = make([]float64, ngroups)
	a := ix.only
	for i := range ix.segs {
		b := at(i + 1)
		cos := math.Cos(a.latRad())
		s := segment{
			lat: a.latRad(),
			lng: a.lngRad(),
			cos: cos,
			bx:  (b.lngRad() - a.lngRad()) * cos * EarthRadius,
			by:  (b.latRad() - a.latRad()) * EarthRadius,
		}
		s.ab2 = s.bx*s.bx + s.by*s.by
		ix.segs[i] = s

		g := &ix.groups[i/segGroup]
		lat0, lat1 := minmax(a.latRad(), b.latRad())
		lng0, lng1 := minmax(a.lngRad(), b.lngRad())
		if i%segGroup == 0 {
			*g = segBox{minLat: lat0, maxLat: lat1, minLng: lng0, maxLng: lng1, cmin: math.Abs(cos)}
		} else {
			g.minLat, g.maxLat = math.Min(g.minLat, lat0), math.Max(g.maxLat, lat1)
			g.minLng, g.maxLng = math.Min(g.minLng, lng0), math.Max(g.maxLng, lng1)
			g.cmin = math.Min(g.cmin, math.Abs(cos))
		}
		a = b
	}
	return ix, nil
}

// DistanceTo returns the minimal distance in meters from p to the path.
func (ix *SegmentIndex) DistanceTo(p Point) float64 {
	if len(ix.segs) == 0 {
		return Distance(p, ix.only)
	}
	lat, lng := p.latRad(), p.lngRad()
	first := 0
	for g := range ix.groups {
		ix.bounds[g] = ix.groups[g].bound(lat, lng)
		if ix.bounds[g] < ix.bounds[first] {
			first = g
		}
	}
	best := ix.scan(first, lat, lng, math.Inf(1))
	for g, b := range ix.bounds {
		if g != first && b <= best {
			best = ix.scan(g, lat, lng, best)
		}
	}
	return best
}

// bound returns a lower bound, slack included, on the distance from
// the probe (lat, lng in radians) to any segment of the group.
func (g *segBox) bound(lat, lng float64) float64 {
	var dlat, dlng float64
	if lat < g.minLat {
		dlat = g.minLat - lat
	} else if lat > g.maxLat {
		dlat = lat - g.maxLat
	}
	if lng < g.minLng {
		dlng = (g.minLng - lng) * g.cmin
	} else if lng > g.maxLng {
		dlng = (lng - g.maxLng) * g.cmin
	}
	return EarthRadius*math.Sqrt(dlng*dlng+dlat*dlat)*(1-boundRelSlack) - boundAbsSlack
}

// scan folds the distances from the probe to group g's segments into
// best and returns it.
func (ix *SegmentIndex) scan(g int, lat, lng, best float64) float64 {
	segs := ix.segs[g*segGroup : min((g+1)*segGroup, len(ix.segs))]
	for i := range segs {
		if d := segs[i].distance(lat, lng); d < best {
			best = d
		}
	}
	return best
}

// distance returns the distance in meters from the probe (lat, lng in
// radians) to the segment, in the segment's frame: the probe is
// projected, clamped onto [a, b], and measured with math.Hypot.
func (s *segment) distance(lat, lng float64) float64 {
	px := (lng - s.lng) * s.cos * EarthRadius
	py := (lat - s.lat) * EarthRadius
	if s.ab2 == 0 {
		return math.Hypot(px, py)
	}
	t := (px*s.bx + py*s.by) / s.ab2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return math.Hypot(px-s.bx*t, py-s.by*t)
}

func minmax(a, b float64) (float64, float64) {
	if a < b {
		return a, b
	}
	return b, a
}
