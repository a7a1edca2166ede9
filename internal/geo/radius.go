package geo

import (
	"cmp"
	"math"
	"slices"
)

// prefilterMaxLat is the latitude, in degrees, beyond which a
// RadiusIndex drops its longitude prefilter: towards the poles cos of
// the band's edge shrinks to nothing and the prefilter to no use.
const prefilterMaxLat = 89

// RadiusIndex answers "which of these points lie within the radius of
// p?" for a fixed point set: every i with FastDistance(p, pts[i]) <=
// radius, with that distance. The answer is the one an all-pairs scan
// gives, bit for bit, because every candidate that survives the two
// filters below takes the same FastDistance test, and every point a
// filter drops is provably farther than the radius.
//
//   - The latitude band. FastDistance is at least R·|Δφ|, so a point
//     within the radius lies within radius/R radians of latitude. The
//     points are sorted by latitude once, their latitudes kept in one
//     contiguous slice, and a probe binary-searches that slice for the
//     band, widened by a relative 1e-9 and 1e-9°, far above the
//     rounding of the degree-radian conversions.
//   - The longitude prefilter. FastDistance is R·√(x²+y²) with x =
//     Δλ·cos(φm), φm the mean latitude of the pair, so it is at least
//     R·|Δλ|·cos(φm). A candidate in the band is within `band` of the
//     probe's latitude, so |φm| ≤ maxLat + band, where maxLat is the
//     largest |latitude| of the indexed points, and cos(φm) ≥ cmin =
//     cos(maxLat + band), computed once at construction. A point within
//     the radius thus has |Δλ| ≤ band/cmin, and the probe drops a
//     candidate whose raw longitude difference exceeds that. The band's
//     slack carries over: it dwarfs the rounding of cos, of φm and of
//     the degree-radian conversions, a few ulps each. Longitudes are
//     compared unwrapped, as FastDistance compares them. The prefilter
//     is off when maxLat + band reaches 89°, where cmin vanishes, and
//     when an indexed longitude lies outside ±360°, where the degree
//     and radian differences could part by more than the slack.
//
// Points with a NaN or infinite latitude are left out: their
// FastDistance to anything is NaN. An index holding a latitude beyond
// ±90° drops both filters and tests every point, so the answer equals
// the scan's for any input.
type RadiusIndex struct {
	radius  float64
	band    float64       // half-height of a probe's latitude band, degrees
	maxLng  float64       // longitude prefilter half-width, degrees; +Inf when off
	entries []radiusEntry // ascending by (latitude, index)
	lats    []float64     // lats[k] = entries[k].p.Lat
}

// radiusEntry is one indexed point and its index in the indexed slice.
type radiusEntry struct {
	p Point
	i int
}

// Neighbor is one indexed point within the radius of a probe.
type Neighbor struct {
	I int     // index of the point in the slice the index was built over
	D float64 // FastDistance(probe, point)
}

// NewRadiusIndex indexes pts for probes of the given radius in meters.
// The index keeps no reference to pts.
func NewRadiusIndex(pts []Point, radius float64) *RadiusIndex {
	ix := &RadiusIndex{radius: radius, maxLng: math.Inf(1), entries: make([]radiusEntry, 0, len(pts))}
	maxLat, maxLng := 0.0, 0.0 // a NaN longitude makes maxLng NaN
	for i, p := range pts {
		if math.IsNaN(p.Lat) || math.IsInf(p.Lat, 0) {
			continue
		}
		ix.entries = append(ix.entries, radiusEntry{p, i})
		maxLat = math.Max(maxLat, math.Abs(p.Lat))
		maxLng = math.Max(maxLng, math.Abs(p.Lng))
	}
	slices.SortFunc(ix.entries, func(a, b radiusEntry) int {
		if c := cmp.Compare(a.p.Lat, b.p.Lat); c != 0 {
			return c
		}
		return a.i - b.i
	})
	ix.lats = make([]float64, len(ix.entries))
	for k, e := range ix.entries {
		ix.lats[k] = e.p.Lat
	}
	ix.band = radius/EarthRadius*radToDeg*(1+1e-9) + 1e-9
	if maxLat > 90 {
		ix.band = math.Inf(1)
	}
	if edge := maxLat + ix.band; maxLng <= 360 && edge < prefilterMaxLat {
		ix.maxLng = ix.band / math.Cos(edge*degToRad)
	}
	return ix
}

// AppendWithin appends to dst every indexed point within the radius of
// p, ascending by (latitude, index), and returns the extended slice. It
// allocates nothing when dst has the room.
func (ix *RadiusIndex) AppendWithin(dst []Neighbor, p Point) []Neighbor {
	lo, hi := p.Lat-ix.band, p.Lat+ix.band
	// k is the first entry whose latitude is not below lo: the lower
	// bound a binary search over lats finds.
	k, end := 0, len(ix.lats)
	for k < end {
		m := int(uint(k+end) >> 1)
		if ix.lats[m] < lo {
			k = m + 1
		} else {
			end = m
		}
	}
	for ; k < len(ix.lats) && ix.lats[k] <= hi; k++ {
		q := ix.entries[k].p
		if math.Abs(q.Lng-p.Lng) > ix.maxLng {
			continue
		}
		if d := FastDistance(p, q); d <= ix.radius {
			dst = append(dst, Neighbor{I: ix.entries[k].i, D: d})
		}
	}
	return dst
}

// Match is one pair of a greedy matching of two point sets.
type Match struct {
	A, B int     // indices into the first and the second set
	D    float64 // FastDistance(a[A], b[B])
}

// GreedyMatch pairs the points of a with the points of b within the
// radius, closest pairs first, each point used at most once. The
// candidate pairs (every i, j with FastDistance(a[i], b[j]) <= radius)
// are sorted by (D, A, B), a strict total order, and a pair is taken
// when neither of its points is taken yet, so the result does not
// depend on the order in which the radius join finds the pairs. The
// taken pairs are returned in that order.
func GreedyMatch(a, b []Point, radius float64) []Match {
	ix := NewRadiusIndex(b, radius)
	var pairs []Match
	near := make([]Neighbor, 0, len(b)) // room for any one probe
	for i, p := range a {
		near = ix.AppendWithin(near[:0], p)
		for _, n := range near {
			pairs = append(pairs, Match{A: i, B: n.I, D: n.D})
		}
	}
	slices.SortFunc(pairs, func(x, y Match) int {
		if c := cmp.Compare(x.D, y.D); c != 0 {
			return c
		}
		if x.A != y.A {
			return x.A - y.A
		}
		return x.B - y.B
	})
	used := make([]bool, len(a)+len(b))
	usedA, usedB := used[:len(a)], used[len(a):]
	matched := pairs[:0]
	for _, m := range pairs {
		if usedA[m.A] || usedB[m.B] {
			continue
		}
		usedA[m.A], usedB[m.B] = true, true
		matched = append(matched, m)
	}
	return matched
}
