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
// relative 1e-9 and an absolute 1 µm before it may prune. Within a
// scanned group, a segment's math.Hypot is taken only when the square
// of its offset is within a proven margin of the smallest square so
// far; scan gives the proof that the others cannot be the minimum.
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

// Reset indexes the path of n vertices, the i-th being at(i). The zero
// SegmentIndex is empty; Reset fills it, and on an index already in use
// it re-indexes in place and answers from then on exactly as a fresh
// index would. It reuses the index's buffers and allocates nothing when
// they have the room. At least one vertex is required; on error ix is
// left unchanged.
func (ix *SegmentIndex) Reset(n int, at func(i int) Point) error {
	if n <= 0 {
		return ErrEmptyPolyline
	}
	ix.only = at(0)
	ngroups := (n - 1 + segGroup - 1) / segGroup
	ix.segs = resize(ix.segs, n-1)
	ix.groups = resize(ix.groups, ngroups)
	ix.bounds = resize(ix.bounds, ngroups)
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
	return nil
}

// resize returns buf with length n, reusing its array when it has the
// room.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
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
	best, sq := ix.scan(first, lat, lng, math.Inf(1), math.Inf(1))
	for g, b := range ix.bounds {
		if g != first && b <= best {
			best, sq = ix.scan(g, lat, lng, best, sq)
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

// A scanned segment's offset (x, y) from the probe is ranked by its
// rounded square s = x*x + y*y, and math.Hypot(x, y) is called only
// when s <= sq·tieRel + tieAbs, sq being the smallest s scanned so far.
const (
	tieRel = 1 + 0x1p-40
	tieAbs = 0x1p-990 // square meters
)

// scan folds the distances from the probe to group g's segments into
// best, the smallest distance so far, and sq, the smallest rounded
// square so far, and returns both.
//
// Every distance is math.Hypot of the segment's offset, as in the
// plain scan; only the segments that cannot beat best skip the call.
// With u = 2⁻⁵³ and η = 2⁻¹⁰⁷⁵ (the largest rounding error below the
// normal range), let r = √(x²+y²) exactly, s the rounded square and h
// = Hypot(x, y). The square takes at most three roundings, so |s − r²|
// ≤ 4u·r² + 3η. Hypot computes p·√(1+(q/p)²) with p ≥ q in five
// roundings, and the root halves the error of the three beneath it, so
// |h − r| ≤ 4u·r + η, the η for a result below the normal range.
// Suppose segment k would lower best below h_j, where j holds sq when
// k is scanned (every new smallest square passes the test, so j took
// the call and best ≤ h_j). Then h_k < h_j gives r_k < r_j(1+9u) + 3η.
//   - If r_j ≥ 2⁻⁵⁰⁰, 3η is below 2⁻⁵⁷³·r_j, so r_k² < r_j²(1+21u)
//     and s_k < s_j(1+31u) + 7η. The rounded threshold is at least
//     s_j(1+2⁻⁴⁰−3u) + 2⁻⁹⁹¹, and 2⁻⁴⁰ is 8192u, so s_k is below it.
//   - If r_j < 2⁻⁵⁰⁰, s_k < 2⁻⁹⁹⁹, below tieAbs, which the threshold
//     never falls under.
//   - If s_k overflows to +Inf from a finite offset, r_k² is at least
//     about 2¹⁰²⁴, so s_j is within 30u of it and s_j·tieRel rounds to
//     +Inf: the threshold lets s_k through. A threshold of +Inf skips
//     nothing, and an infinite offset has h = +Inf (see below).
//   - A NaN s, from an offset holding a NaN, is skipped (NaN <= x is
//     false). An offset holding a NaN or an infinity has h NaN or
//     +Inf, neither of which is below best: best starts at +Inf and
//     only falls by a strict comparison.
//
// So no skipped segment has an h below best, and after each segment
// best is the plain scan's minimum, bit for bit. The group pruning
// compares bounds with that same best, so it decides as the plain
// scan's index did. Ranking by s alone is not enough: the two
// roundings can order near-ties differently (TestSegmentIndexNearTie).
func (ix *SegmentIndex) scan(g int, lat, lng, best, sq float64) (float64, float64) {
	segs := ix.segs[g*segGroup : min((g+1)*segGroup, len(ix.segs))]
	tie := sq*tieRel + tieAbs
	for i := range segs {
		x, y := segs[i].offset(lat, lng)
		if s := x*x + y*y; s <= tie {
			if s < sq {
				sq, tie = s, s*tieRel+tieAbs
			}
			if d := math.Hypot(x, y); d < best {
				best = d
			}
		}
	}
	return best, sq
}

// offset returns the vector in meters from the point of the segment
// nearest to the probe (lat, lng in radians) to the probe, in the
// segment's frame: the probe is projected and clamped onto [a, b].
// Its math.Hypot is the distance.
func (s *segment) offset(lat, lng float64) (float64, float64) {
	px := (lng - s.lng) * s.cos * EarthRadius
	py := (lat - s.lat) * EarthRadius
	if s.ab2 == 0 {
		return px, py
	}
	t := (px*s.bx + py*s.by) / s.ab2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return px - s.bx*t, py - s.by*t
}

func minmax(a, b float64) (float64, float64) {
	if a < b {
		return a, b
	}
	return b, a
}
