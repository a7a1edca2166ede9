package geo

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteDistance is the reference SegmentIndex must match bit for bit:
// the plain scan of every segment, each measured in a planar frame
// centred at its first vertex, a single vertex falling back to the
// great-circle distance.
func bruteDistance(pts []Point, p Point) float64 {
	if len(pts) == 1 {
		return Distance(p, pts[0])
	}
	best := -1.0
	for i := 1; i < len(pts); i++ {
		d := bruteSegment(p, pts[i-1], pts[i])
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

func bruteSegment(p, a, b Point) float64 {
	pr := NewProjector(a)
	pv := pr.ToXY(p)
	bv := pr.ToXY(b)
	ab2 := bv.X*bv.X + bv.Y*bv.Y
	if ab2 == 0 {
		return pv.Norm()
	}
	t := (pv.X*bv.X + pv.Y*bv.Y) / ab2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	closest := XY{X: bv.X * t, Y: bv.Y * t}
	return pv.Dist(closest)
}

func mustIndex(t testing.TB, pts []Point) *SegmentIndex {
	t.Helper()
	ix := &SegmentIndex{}
	if err := ix.Reset(len(pts), func(i int) Point { return pts[i] }); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestDistanceToSegment(t *testing.T) {
	a := lyon
	b := Destination(lyon, 90, 1000) // 1 km east
	ix := mustIndex(t, []Point{a, b})
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"on segment start", a, 0},
		{"on segment end", b, 0},
		{"on segment middle", Destination(lyon, 90, 500), 0},
		{"north of middle", Offset(Destination(lyon, 90, 500), 0, 200), 200},
		{"beyond end", Destination(lyon, 90, 1300), 300},
		{"before start", Destination(lyon, 270, 250), 250},
		{"diagonal off end", Offset(b, 300, 400), 500},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ix.DistanceTo(tt.p)
			if math.Abs(got-tt.want) > tt.want*0.005+0.5 {
				t.Errorf("DistanceTo = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistanceToSegmentDegenerate(t *testing.T) {
	p := Offset(lyon, 120, 0)
	if got := mustIndex(t, []Point{lyon, lyon}).DistanceTo(p); math.Abs(got-120) > 0.5 {
		t.Fatalf("degenerate segment distance = %v, want 120", got)
	}
}

func TestPolylineDistanceTo(t *testing.T) {
	pts := []Point{
		lyon,
		Destination(lyon, 90, 1000),
		Destination(Destination(lyon, 90, 1000), 0, 1000),
	}
	ix := mustIndex(t, pts)
	// A point 150 m north of the middle of the first segment.
	probe := Offset(Destination(lyon, 90, 500), 0, 150)
	if got := ix.DistanceTo(probe); math.Abs(got-150) > 1 {
		t.Errorf("DistanceTo = %v, want 150", got)
	}
	// A vertex itself.
	if got := ix.DistanceTo(pts[1]); got > 0.01 {
		t.Errorf("DistanceTo(vertex) = %v, want 0", got)
	}
	// Single-vertex path.
	if got := mustIndex(t, []Point{lyon}).DistanceTo(Offset(lyon, 30, 40)); math.Abs(got-50) > 0.5 {
		t.Errorf("single-vertex DistanceTo = %v, want 50", got)
	}
	if err := new(SegmentIndex).Reset(0, nil); err != ErrEmptyPolyline {
		t.Errorf("empty path: err = %v, want ErrEmptyPolyline", err)
	}
}

// randomPath returns a seeded random walk of n vertices around lyon
// that mixes dwells (repeated vertices), short steps and long jumps.
func randomPath(rnd *rand.Rand, n int) []Point {
	pts := make([]Point, 0, n)
	p := Offset(lyon, rnd.Float64()*2000-1000, rnd.Float64()*2000-1000)
	for len(pts) < n {
		pts = append(pts, p)
		switch r := rnd.Float64(); {
		case r < 0.3: // dwell: the next vertex repeats this one
		case r < 0.9:
			p = Offset(p, rnd.NormFloat64()*100, rnd.NormFloat64()*100)
		default:
			p = Offset(p, rnd.NormFloat64()*5000, rnd.NormFloat64()*5000)
		}
	}
	return pts
}

// TestSegmentIndexMatchesBruteForce is the differential wall: on seeded
// random paths, the index must return exactly the brute-force minimum.
func TestSegmentIndexMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := []int{1, 2, 3, 16, 17, 33, 200}[trial%7]
		if trial%7 == 6 {
			n = 1 + rnd.Intn(1500)
		}
		pts := randomPath(rnd, n)
		ix := mustIndex(t, pts)
		var probes []Point
		for i := 0; i < 40; i++ {
			v := pts[rnd.Intn(len(pts))]
			switch i % 5 {
			case 0: // exactly on a vertex
				probes = append(probes, v)
			case 1: // on a segment's interior
				w := pts[min(len(pts)-1, rnd.Intn(len(pts))+1)]
				f := rnd.Float64()
				probes = append(probes, Point{Lat: v.Lat + f*(w.Lat-v.Lat), Lng: v.Lng + f*(w.Lng-v.Lng)})
			case 2: // nearby
				probes = append(probes, Offset(v, rnd.NormFloat64()*30, rnd.NormFloat64()*30))
			case 3: // a few kilometres away
				probes = append(probes, Offset(v, rnd.NormFloat64()*3000, rnd.NormFloat64()*3000))
			default: // far away
				probes = append(probes, Offset(v, rnd.NormFloat64()*80000, rnd.NormFloat64()*80000))
			}
		}
		for _, p := range probes {
			got, want := ix.DistanceTo(p), bruteDistance(pts, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (%d vertices), probe %v: index %v, brute force %v", trial, n, p, got, want)
			}
		}
	}
}

// FuzzSegmentIndex decodes a path and a probe from the input and
// checks the index against the brute-force scan bit for bit. The first
// byte picks the coordinate step (down to 1e-9°, where rounding is
// loudest), the second the base latitude (equator to pole); then every
// 4 bytes are one vertex as two int16 steps, the last one the probe.
func FuzzSegmentIndex(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 10, 0, 10, 0, 5, 0, 7})
	f.Add([]byte{0, 3, 1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 255, 255, 0, 1})
	f.Add([]byte{3, 2, 0, 1, 0, 2, 0, 1, 0, 2, 128, 0, 127, 255, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2+8 {
			return
		}
		step := []float64{1e-9, 1e-7, 1e-5, 1e-3}[data[0]%4]
		base := []float64{0, 45.764, 80, -89.9}[data[1]%4]
		var pts []Point
		for b := data[2:]; len(b) >= 4; b = b[4:] {
			dlat := float64(int16(binary.BigEndian.Uint16(b)))
			dlng := float64(int16(binary.BigEndian.Uint16(b[2:])))
			p := Point{Lat: base + dlat*step, Lng: 4.8357 + dlng*step}
			if p.Validate() != nil {
				return
			}
			pts = append(pts, p)
		}
		probe, pts := pts[len(pts)-1], pts[:len(pts)-1]
		got, want := mustIndex(t, pts).DistanceTo(probe), bruteDistance(pts, probe)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d vertices, probe %v: index %v, brute force %v", len(pts), probe, got, want)
		}

		// Reset from a longer path A, already queried, to this path B
		// must answer exactly as a fresh index over B.
		a := append([]Point{probe}, pts...)
		slices.Reverse(a)
		ix := mustIndex(t, a)
		ix.DistanceTo(probe)
		if err := ix.Reset(len(pts), func(i int) Point { return pts[i] }); err != nil {
			t.Fatal(err)
		}
		if got := ix.DistanceTo(probe); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d vertices, probe %v: reset index %v, fresh index %v", len(pts), probe, got, want)
		}
	})
}

// TestSegmentIndexNearTie pins a path and a probe where ranking the
// segments by their rounded squared offsets alone gives other bits than
// the scan: the segment with the smallest square is not the one with
// the smallest math.Hypot. The index must still return the scan's
// minimum, which only the margin in scan guarantees. The case came from
// a seeded search over paths whose vertices lie micrometers apart on a
// circle around the probe, where every segment ties to the last ulp.
func TestSegmentIndexNearTie(t *testing.T) {
	pts := []Point{
		{Lat: 45.763137841819606, Lng: 4.836132810299399},
		{Lat: 45.763137841819734, Lng: 4.836132810300687},
		{Lat: 45.763137841819876, Lng: 4.836132810302244},
	}
	probe := Point{Lat: 45.76438781540838, Lng: 4.83588293478768}
	ix := mustIndex(t, pts)

	// The wall is not vacuous: squares and Hypot rank the two segments
	// differently.
	lat, lng := probe.latRad(), probe.lngRad()
	bySquare, byHypot := -1, -1
	var sq, h [2]float64
	for i := range ix.segs {
		x, y := ix.segs[i].offset(lat, lng)
		sq[i], h[i] = x*x+y*y, math.Hypot(x, y)
	}
	if sq[0] < sq[1] {
		bySquare = 0
	} else if sq[1] < sq[0] {
		bySquare = 1
	}
	if h[0] < h[1] {
		byHypot = 0
	} else if h[1] < h[0] {
		byHypot = 1
	}
	if bySquare < 0 || byHypot < 0 || bySquare == byHypot {
		t.Fatalf("not a near-tie: squares %v, Hypot %v", sq, h)
	}

	got, want := ix.DistanceTo(probe), bruteDistance(pts, probe)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("index %v, brute force %v", got, want)
	}
}

// commuterPath is one commuter day at one fix a minute: a dwell at
// home, a wavy commute, a dwell at work and the way back.
func commuterPath(rnd *rand.Rand) []Point {
	home := lyon
	work := Offset(lyon, 6000, 3000)
	pts := make([]Point, 0, 1440)
	commute := func(from, to Point) {
		for i := 0; i < 40; i++ {
			f := float64(i) / 40
			p := Point{Lat: from.Lat + f*(to.Lat-from.Lat), Lng: from.Lng + f*(to.Lng-from.Lng)}
			pts = append(pts, Offset(p, rnd.NormFloat64()*40, rnd.NormFloat64()*40))
		}
	}
	dwell := func(at Point, n int) {
		for i := 0; i < n; i++ {
			pts = append(pts, Offset(at, rnd.NormFloat64()*5, rnd.NormFloat64()*5))
		}
	}
	dwell(home, 450)
	commute(home, work)
	dwell(work, 540)
	commute(work, home)
	dwell(home, 1440-len(pts))
	return pts
}

// BenchmarkSegmentIndex measures the two directions mobieval asks for
// on a commuter-shaped trace: 120 published points against the
// 1,440-vertex original path, and the 1,440 original points against
// the 120-vertex published path. Index construction is included. The
// published points are every twelfth original fix, so most sit inside
// a dwell's jitter, where the box of every group of that dwell holds
// the probe and none of them can be pruned: the index's worst case,
// which published Promesse output (no dwells) rarely meets.
func BenchmarkSegmentIndex(b *testing.B) {
	orig := commuterPath(rand.New(rand.NewSource(1)))
	anon := make([]Point, 0, 120)
	for i := 0; i < len(orig); i += len(orig) / 120 {
		anon = append(anon, orig[i])
	}
	for _, c := range []struct {
		name         string
		path, probes []Point
	}{{"anon-vs-orig", orig, anon}, {"orig-vs-anon", anon, orig}} {
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				ix := mustIndex(b, c.path)
				for _, p := range c.probes {
					ix.DistanceTo(p)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.probes)), "ns/point")
		})
	}
}

// TestSegmentIndexQueryAllocs pins a query to zero allocations.
func TestSegmentIndexQueryAllocs(t *testing.T) {
	pts := commuterPath(rand.New(rand.NewSource(2)))
	ix := mustIndex(t, pts)
	probe := Offset(pts[500], 20, -10)
	if n := testing.AllocsPerRun(100, func() { ix.DistanceTo(probe) }); n != 0 {
		t.Fatalf("DistanceTo allocates %v times per query, want 0", n)
	}
}

// TestSegmentIndexResetAllocs pins Reset to zero allocations once the
// index has the room: a day's path re-indexed over another day's.
func TestSegmentIndexResetAllocs(t *testing.T) {
	a := commuterPath(rand.New(rand.NewSource(3)))
	b := commuterPath(rand.New(rand.NewSource(4)))
	ix := mustIndex(t, a)
	at := func(i int) Point { return b[i] }
	if n := testing.AllocsPerRun(100, func() { ix.Reset(len(b), at) }); n != 0 {
		t.Fatalf("Reset allocates %v times, want 0", n)
	}
}
