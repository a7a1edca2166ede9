package geo

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// joinPair is one (probe, point) pair within the radius, its distance
// kept as bits so that equality is bit equality.
type joinPair struct {
	i, j int
	d    uint64
}

// allPairs is the reference RadiusIndex must match: the all-pairs loop
// the POI attack's matcher ran before the index, kept verbatim.
func allPairs(truth, extracted []Point, radius float64) []joinPair {
	type pair struct {
		t, e int
		d    float64
	}
	var pairs []pair
	for ti, tp := range truth {
		for ei, ep := range extracted {
			if d := FastDistance(tp, ep); d <= radius {
				pairs = append(pairs, pair{t: ti, e: ei, d: d})
			}
		}
	}
	out := make([]joinPair, len(pairs))
	for k, p := range pairs {
		out[k] = joinPair{p.t, p.e, math.Float64bits(p.d)}
	}
	return out
}

// indexPairs probes an index over points with every probe.
func indexPairs(probes, points []Point, radius float64) []joinPair {
	ix := NewRadiusIndex(points, radius)
	var out []joinPair
	var near []Neighbor
	for i, p := range probes {
		near = ix.AppendWithin(near[:0], p)
		for _, n := range near {
			out = append(out, joinPair{i, n.I, math.Float64bits(n.D)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].i != out[b].i {
			return out[a].i < out[b].i
		}
		return out[a].j < out[b].j
	})
	return out
}

// greedyAllPairs is the reference GreedyMatch must match: the
// all-pairs greedy walk the Markov-chain distance ran before the join,
// kept verbatim apart from returning the taken pairs.
func greedyAllPairs(as, bs []Point, matchRadius float64) []Match {
	type pair struct {
		i, j int
		d    float64
	}
	var pairs []pair
	for i, sa := range as {
		for j, sb := range bs {
			if d := FastDistance(sa, sb); d <= matchRadius {
				pairs = append(pairs, pair{i, j, d})
			}
		}
	}
	sort.Slice(pairs, func(x, y int) bool {
		if pairs[x].d != pairs[y].d {
			return pairs[x].d < pairs[y].d
		}
		if pairs[x].i != pairs[y].i {
			return pairs[x].i < pairs[y].i
		}
		return pairs[x].j < pairs[y].j
	})
	usedA := make(map[int]bool)
	usedB := make(map[int]bool)
	var out []Match
	for _, p := range pairs {
		if usedA[p.i] || usedB[p.j] {
			continue
		}
		usedA[p.i] = true
		usedB[p.j] = true
		out = append(out, Match{A: p.i, B: p.j, D: p.d})
	}
	return out
}

// checkJoin compares the index and the greedy matcher against their
// all-pairs references.
func checkJoin(t *testing.T, probes, points []Point, radius float64) {
	t.Helper()
	want, got := allPairs(probes, points, radius), indexPairs(probes, points, radius)
	if !slices.Equal(want, got) {
		t.Fatalf("radius %v, %d probes × %d points: index found %d pairs, all-pairs scan %d\nindex %v\nscan  %v",
			radius, len(probes), len(points), len(got), len(want), got, want)
	}
	wantM, gotM := greedyAllPairs(probes, points, radius), GreedyMatch(probes, points, radius)
	if !slices.EqualFunc(wantM, gotM, func(w, g Match) bool {
		return w.A == g.A && w.B == g.B && math.Float64bits(w.D) == math.Float64bits(g.D)
	}) {
		t.Fatalf("radius %v: GreedyMatch took %v, all-pairs greedy %v", radius, gotM, wantM)
	}
}

// ring returns points around c at one radius: north, south, east and
// west by Offset; a copy of c; and points on the FastDistance circle
// of the radius, at bearings near east and west (where the longitude
// prefilter is tightest) and a little poleward of them (where a pair's
// mean latitude is farther from the equator than the probe), each at
// scales a hair inside and outside the radius.
func ring(c Point, radius float64) []Point {
	r := radius / EarthRadius * radToDeg
	out := []Point{c, c, Offset(c, 0, radius), Offset(c, 0, -radius), Offset(c, radius, 0), Offset(c, -radius, 0)}
	for _, theta := range []float64{0, 1e-3, 5e-3, 2e-2, 0.1, math.Pi / 4, math.Pi / 2} {
		for _, f := range []float64{1 - 2e-9, 1 - 1e-9, 1 - 5e-10, 1 - 1e-12, 1, 1 + 1e-12} {
			for _, sy := range []float64{1, -1} {
				dlat := r * math.Sin(theta) * f * sy
				dlng := r * math.Cos(theta) * f / math.Cos((c.Lat+dlat/2)*degToRad)
				out = append(out, Point{c.Lat + dlat, c.Lng + dlng}, Point{c.Lat + dlat, c.Lng - dlng})
			}
		}
	}
	return out
}

// TestRadiusIndexMatchesAllPairs is the differential wall for the radius
// join: for every probe the index must return exactly the pairs, and the
// distance bits, of an all-pairs FastDistance scan, and GreedyMatch the
// matching of an all-pairs greedy walk.
func TestRadiusIndexMatchesAllPairs(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	centers := []Point{
		lyon, {0, 0}, {60, 10}, {-60, -70}, {85, 30}, {-85, 120},
		{45, 179.9995}, {45, -179.9995}, {-30, 180}, {-30, -180}, {10, 180.0004}, {10, -180.0004},
		// At ±180° a longitude's radians round to a few 1e-9 of a
		// 1 m radius, more than the prefilter's margin at the equator.
		{0, 180}, {0, -179.99999},
	}
	for _, radius := range []float64{1, 250, 5000} {
		for _, c := range centers {
			probes := ring(c, radius)
			points := ring(c, radius)
			for range 120 {
				s := 3 * radius
				points = append(points, Offset(c, rnd.Float64()*2*s-s, rnd.Float64()*2*s-s))
				probes = append(probes, Offset(c, rnd.Float64()*2*s-s, rnd.Float64()*2*s-s))
			}
			// Raw longitudes on the far side of ±180, unwrapped.
			points = append(points, Point{c.Lat, c.Lng + 360}, Point{c.Lat, c.Lng - 360})
			checkJoin(t, probes, points, radius)
			checkJoin(t, points, probes, radius)
		}
	}
	t.Run("rounding at the edge", func(t *testing.T) {
		// On the equator the prefilter's margin over the exact bound is
		// ~1e-14 of a 1 m radius, while FastDistance's radian difference
		// of two longitudes rounds by up to ~1e-10 of it: points a few
		// 1e-11 of a radius east or west of the probe land on both sides
		// of the radius, and only the band's slack keeps them in.
		r := 1 / EarthRadius * radToDeg
		for _, lng := range []float64{4.8357, -73.99, 151.2} {
			probes := []Point{{0, lng}}
			var points []Point
			for j := -8; j <= 8; j++ {
				d := r * (1 + float64(j)*1e-11)
				points = append(points, Point{0, lng + d}, Point{0, lng - d})
			}
			checkJoin(t, probes, points, 1)
		}
	})
	t.Run("empty", func(t *testing.T) {
		checkJoin(t, nil, []Point{lyon}, 250)
		checkJoin(t, []Point{lyon}, nil, 250)
		checkJoin(t, nil, nil, 250)
	})
	t.Run("duplicates and ties", func(t *testing.T) {
		// Every point repeated, and pairs of points symmetric about a
		// probe, so that distances tie and (D, A, B) decides.
		var pts []Point
		for _, dx := range []float64{-100, -50, 0, 50, 100} {
			p := Offset(lyon, dx, 0)
			pts = append(pts, p, p, p)
		}
		checkJoin(t, pts, pts, 100)
		checkJoin(t, []Point{lyon, lyon}, pts, 60)
	})
	t.Run("off the globe", func(t *testing.T) {
		// The index must agree with the scan on any input, not only on
		// valid coordinates.
		nan, inf := math.NaN(), math.Inf(1)
		pts := []Point{
			lyon, {nan, lyon.Lng}, {lyon.Lat, nan}, {inf, lyon.Lng}, {lyon.Lat, inf}, {lyon.Lat, -inf},
			{lyon.Lat, lyon.Lng + 400}, {100, 0}, {100, 1e-9}, {-95, 0}, {1e10, 0}, {1e10, 1e-5},
		}
		for _, radius := range []float64{0, 1, 250, 5e7, inf, nan, -1} {
			checkJoin(t, pts, pts, radius)
			checkJoin(t, pts, pts[:7], radius)
			checkJoin(t, pts[7:], pts[:1], radius)
		}
	})
}

// FuzzRadiusIndex decodes two point sets from the input and checks the
// index and GreedyMatch against the all-pairs scan bit for bit. The
// first byte picks the radius, the second the base latitude (equator,
// ±60°, ±85°), the third the base longitude (either side of ±180 among
// them) and the fourth the coordinate step; then every 5 bytes are one
// point: a side byte and two int16 steps.
func FuzzRadiusIndex(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 0, 0, 0, 0, 0, 1, 0, 10, 0, 10, 0, 0, 0, 7, 0, 7})
	f.Add([]byte{0, 3, 2, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 255, 255, 0, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{2, 4, 3, 1, 0, 128, 0, 127, 255, 1, 9, 9, 9, 9, 0, 0, 1, 0, 1, 1, 0, 2, 0, 2})
	f.Add([]byte{1, 5, 4, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 22, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		radius := []float64{1, 250, 5000}[data[0]%3]
		lat0 := []float64{0, 45.764, 60, -60, 85, -85}[data[1]%6]
		lng0 := []float64{4.8357, 179.999, -179.999, 180, -180}[data[2]%5]
		step := []float64{1e-9, 1e-7, 1e-5, 1e-3}[data[3]%4]
		var sides [2][]Point
		for b := data[4:]; len(b) >= 5; b = b[5:] {
			dlat := float64(int16(binary.BigEndian.Uint16(b[1:])))
			dlng := float64(int16(binary.BigEndian.Uint16(b[3:])))
			sides[b[0]%2] = append(sides[b[0]%2], Point{Lat: lat0 + dlat*step, Lng: lng0 + dlng*step})
		}
		checkJoin(t, sides[0], sides[1], radius)
	})
}

// TestRadiusIndexProbeAllocs pins a probe to zero allocations once the
// destination has room.
func TestRadiusIndexProbeAllocs(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	pts := make([]Point, 2000)
	for i := range pts {
		pts[i] = Offset(lyon, rnd.Float64()*10000-5000, rnd.Float64()*10000-5000)
	}
	ix := NewRadiusIndex(pts, 250)
	probe := Offset(pts[7], 30, -40)
	near := make([]Neighbor, 0, len(pts))
	if n := testing.AllocsPerRun(100, func() { near = ix.AppendWithin(near[:0], probe) }); n != 0 {
		t.Fatalf("AppendWithin allocates %v times per probe, want 0", n)
	}
	if len(near) == 0 || !slices.ContainsFunc(near, func(n Neighbor) bool { return n.I == 7 }) {
		t.Fatalf("probe 50 m from point 7 found %v", near)
	}
}
