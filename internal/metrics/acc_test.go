package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/trace"
)

// randomPair builds a deterministic pseudo-random (orig, anon) pair.
func randomPair(rnd *rand.Rand, user string) (*trace.Trace, *trace.Trace) {
	base := time.Date(2025, 6, 1, 8, 0, 0, 0, time.UTC)
	mk := func(dy float64, n int) *trace.Trace {
		pts := make([]trace.Point, n)
		for i := range pts {
			pts[i] = trace.Point{
				Point: geo.Offset(origin, float64(i)*80+rnd.Float64()*20, dy+rnd.Float64()*30),
				Time:  base.Add(time.Duration(i) * time.Minute),
			}
		}
		return trace.MustNew(user, pts)
	}
	n := 4 + rnd.Intn(20)
	return mk(0, n), mk(100+rnd.Float64()*400, 3+rnd.Intn(20))
}

// TestAccMergeOrderInvariance is the determinism contract test: feeding
// the same pairs through 1, 4 or 16 accumulators partitioned arbitrarily
// and merged in arbitrary order must reproduce the serial result
// bit-for-bit, for every metric at once (via EvalAcc).
func TestAccMergeOrderInvariance(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	type pair struct{ o, a *trace.Trace }
	var pairs []pair
	for u := 0; u < 40; u++ {
		o, a := randomPair(rnd, fmt.Sprintf("u%02d", u))
		switch u % 7 {
		case 5: // orig-only user
			pairs = append(pairs, pair{o, nil})
		case 6: // anon-only user
			pairs = append(pairs, pair{nil, a})
		default:
			pairs = append(pairs, pair{o, a})
		}
	}
	opts := EvalOptions{Bounds: geo.NewBBox(geo.Offset(origin, -500, -500), geo.Offset(origin, 3000, 3000)), Queries: 20}

	serial, err := NewEvalAcc(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := serial.AddPair(p.o, p.a); err != nil {
			t.Fatal(err)
		}
	}
	want, err := serial.Report()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("partitions=%d", workers), func(t *testing.T) {
			accs := make([]*EvalAcc, workers)
			for i := range accs {
				if accs[i], err = NewEvalAcc(opts); err != nil {
					t.Fatal(err)
				}
			}
			perm := rnd.Perm(len(pairs))
			for i, pi := range perm {
				if err := accs[i%workers].AddPair(pairs[pi].o, pairs[pi].a); err != nil {
					t.Fatal(err)
				}
			}
			root := accs[rnd.Intn(workers)]
			for _, i := range rnd.Perm(workers) {
				if accs[i] != root {
					root.Merge(accs[i])
				}
			}
			got, err := root.Report()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("merged report differs from serial:\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}

// TestDistortionAccMatchesSamples pins the accumulator's exact fields
// (count, mean, min, max) against a pooled-sample reference, and
// its histogram quantiles to the documented resolution.
func TestDistortionAccMatchesSamples(t *testing.T) {
	orig := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 12, 100, 0),
		eastTrace("b", 9, 100, 1000),
	})
	anon := trace.MustNewDataset([]*trace.Trace{
		eastTrace("a", 12, 100, 60),
		eastTrace("b", 9, 100, 1130),
	})
	// The reference pools every published point's distance to its
	// user's original path.
	var samples []float64
	for _, at := range anon.Traces() {
		ot := orig.ByUser(at.User)
		var ix geo.SegmentIndex
		if err := ix.Reset(ot.Len(), func(i int) geo.Point { return ot.Points[i].Point }); err != nil {
			t.Fatal(err)
		}
		for _, p := range at.Points {
			samples = append(samples, ix.DistanceTo(p.Point))
		}
	}
	acc := NewDistortionAcc()
	for _, at := range anon.Traces() {
		if err := acc.AddPair(orig.ByUser(at.User), at); err != nil {
			t.Fatal(err)
		}
	}
	sum := acc.Summary()
	if sum.N != int64(len(samples)) {
		t.Fatalf("N = %d, want %d", sum.N, len(samples))
	}
	var mean, min, max float64
	min = math.Inf(1)
	for _, d := range samples {
		mean += d
		min = math.Min(min, d)
		max = math.Max(max, d)
	}
	mean /= float64(len(samples))
	if math.Abs(sum.Mean-mean) > 1e-6 { // micrometer quantization only
		t.Errorf("Mean = %v, want %v", sum.Mean, mean)
	}
	if sum.Min != min || sum.Max != max {
		t.Errorf("min/max = %v/%v, want %v/%v", sum.Min, sum.Max, min, max)
	}
	// Histogram quantiles are exact to one log bin (~4.5%) plus the
	// micrometer quantization.
	for _, q := range []struct {
		got  float64
		want float64
	}{{sum.P50, quantileOf(samples, 0.5)}, {sum.P95, quantileOf(samples, 0.95)}} {
		if q.want > 1 && math.Abs(q.got-q.want)/q.want > 0.10 {
			t.Errorf("quantile %v strays from %v", q.got, q.want)
		}
	}
}

func quantileOf(xs []float64, q float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[int(q*float64(len(cp)-1))]
}

// TestDistortionAccSketchRegimes pins the two-regime quantile contract:
// up to 256 samples the quantiles are exact order statistics, and in
// BOTH regimes any partition of the samples merged in any order
// reproduces the serial summary bit-for-bit — including merges of exact
// parts whose union crosses the boundary.
func TestDistortionAccSketchRegimes(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	values := func(n int) []float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rnd.Float64() * 900
		}
		return vals
	}
	serialOf := func(vals []float64) DistSummary {
		acc := NewDistortionAcc()
		for _, v := range vals {
			acc.add(v)
		}
		return acc.Summary()
	}
	for _, tc := range []struct {
		name  string
		n     int
		exact bool
	}{
		{"exact", 100, true},
		{"n=256", 256, true},  // the last exact pool
		{"n=257", 257, false}, // the first histogram pool
		{"histogram", 5000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vals := values(tc.n)
			want := serialOf(vals)

			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			p50 := sorted[int(0.5*float64(len(sorted)-1))]
			p95 := sorted[int(0.95*float64(len(sorted)-1))]
			if exact := want.P50 == p50 && want.P95 == p95; exact != tc.exact {
				t.Fatalf("quantiles %v/%v vs order statistics %v/%v: exact = %v, want %v",
					want.P50, want.P95, p50, p95, exact, tc.exact)
			}

			for _, parts := range []int{2, 5} {
				accs := make([]*DistortionAcc, parts)
				for i := range accs {
					accs[i] = NewDistortionAcc()
				}
				for i, pi := range rnd.Perm(len(vals)) {
					accs[i%parts].add(vals[pi])
				}
				root := accs[0]
				for _, i := range rnd.Perm(parts) {
					if accs[i] != root {
						root.Merge(accs[i])
					}
				}
				if got := root.Summary(); !reflect.DeepEqual(want, got) {
					t.Fatalf("parts=%d: merged summary %+v != serial %+v", parts, got, want)
				}
			}
		})
	}
	// Two exact parts whose union lands on, or crosses, the boundary,
	// merged in both orders.
	for _, split := range [][2]int{{200, 56}, {200, 57}, {200, 100}} {
		vals := values(split[0] + split[1])
		want := serialOf(vals)
		for _, swap := range []bool{false, true} {
			a, b := NewDistortionAcc(), NewDistortionAcc()
			for i, v := range vals {
				if i < split[0] {
					a.add(v)
				} else {
					b.add(v)
				}
			}
			if swap {
				a, b = b, a
			}
			a.Merge(b)
			if got := a.Summary(); !reflect.DeepEqual(want, got) {
				t.Fatalf("%d+%d (swap=%v): merged summary %+v != serial %+v", split[0], split[1], swap, got, want)
			}
		}
	}
}

// FuzzDistortionAccMerge checks the determinism contract on arbitrary
// float64 samples (NaN, ±Inf, -0, subnormals, huge values): the data
// is read as 9-byte records, 8 bytes of float64 bits plus 1 byte that
// picks one of 1–5 accumulators, and order seeds the merge order. The
// merged summary must equal the serial one on the bits of every field,
// which reflect.DeepEqual cannot check (it calls -0 equal to +0).
func FuzzDistortionAccMerge(f *testing.F) {
	record := func(v float64, part byte) []byte {
		return append(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)), part)
	}
	var special []byte
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -1, 1e300, 0.5, 3.25} {
		special = append(special, record(v, byte(i))...)
	}
	zeros := slices.Concat(record(0, 0), record(math.Copysign(0, -1), 1), record(0, 1), record(math.Copysign(0, -1), 0))
	rnd := rand.New(rand.NewSource(5))
	randomRecords := func(n int) []byte {
		var b []byte
		for i := 0; i < n; i++ {
			b = append(b, record(rnd.Float64()*900, byte(rnd.Intn(256)))...)
		}
		return b
	}
	for order := int64(0); order < 4; order++ {
		f.Add(uint8(2), order, special)
		f.Add(uint8(1), order, zeros)
		f.Add(uint8(1), order, randomRecords(300)) // exact parts, union past 256
	}
	f.Add(uint8(4), int64(7), randomRecords(256))
	f.Add(uint8(3), int64(9), randomRecords(257))
	f.Fuzz(func(t *testing.T, split uint8, order int64, data []byte) {
		accs := make([]*DistortionAcc, 1+int(split%5))
		for i := range accs {
			accs[i] = NewDistortionAcc()
		}
		serial := NewDistortionAcc()
		for b := data; len(b) >= 9; b = b[9:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(b))
			serial.add(v)
			accs[int(b[8])%len(accs)].add(v)
		}
		perm := rand.New(rand.NewSource(order)).Perm(len(accs))
		root := accs[perm[0]]
		for _, i := range perm[1:] {
			root.Merge(accs[i])
		}
		want, got := serial.Summary(), root.Summary()
		bits := func(s DistSummary) [6]uint64 {
			return [6]uint64{uint64(s.N), math.Float64bits(s.Mean), math.Float64bits(s.Min),
				math.Float64bits(s.Max), math.Float64bits(s.P50), math.Float64bits(s.P95)}
		}
		if bits(got) != bits(want) {
			t.Fatalf("%d parts, merge order %v: merged summary %+v != serial %+v", len(accs), perm, got, want)
		}
	})
}

// TestDistortionAccIdentity pins the all-zero case: evaluating a
// dataset against itself reports exactly zero distortion everywhere.
func TestDistortionAccIdentity(t *testing.T) {
	tr := eastTrace("u", 20, 100, 0)
	acc := NewDistortionAcc()
	if err := acc.AddPair(tr, tr); err != nil {
		t.Fatal(err)
	}
	s := acc.Summary()
	if s.Mean > 1e-9 || s.P50 != 0 || s.P95 != 0 || s.Max > 1e-9 {
		t.Fatalf("self distortion summary %+v, want all ~0", s)
	}
}

// TestU128 pins the wide-sum primitive, including carries.
func TestU128(t *testing.T) {
	var a u128
	a.add(math.MaxUint64)
	a.add(math.MaxUint64)
	a.add(2)
	if a.hi != 2 || a.lo != 0 {
		t.Fatalf("u128 = {%d, %d}, want {2, 0}", a.hi, a.lo)
	}
	var b u128
	b.add(7)
	b.merge(a)
	if b.hi != 2 || b.lo != 7 {
		t.Fatalf("merge = {%d, %d}, want {2, 7}", b.hi, b.lo)
	}
	if got := (u128{hi: 1, lo: 0}).toFloat(); got != 0x1p64 {
		t.Fatalf("toFloat = %v", got)
	}
}

// TestQueryPointsKnownAnswer pins the (seed, index) query derivation:
// these exact centers are what both the batch and the store-native path
// draw for the same seed. Any change here is a format break for
// reproducibility and must be deliberate.
func TestQueryPointsKnownAnswer(t *testing.T) {
	box := geo.NewBBox(geo.Point{Lat: 45.0, Lng: 4.0}, geo.Point{Lat: 46.0, Lng: 5.0})
	want := []struct {
		seed     int64
		i        int
		lat, lng float64
	}{
		{1, 0, 45.874382220330737, 4.6599993482021871},
		{1, 1, 45.034238227451972, 4.5990948659617841},
		{1, 2, 45.549758941641279, 4.5395355936479174},
		{9, 0, 45.122753489358473, 4.524858254087226},
		{9, 1, 45.722525294607927, 4.8213118470033063},
		{9, 2, 45.213302086980072, 4.1803944315026653},
	}
	for _, w := range want {
		pts := queryPoints(box, 3, w.seed)
		if pts[w.i].Lat != w.lat || pts[w.i].Lng != w.lng {
			t.Errorf("queryPoints(seed=%d)[%d] = (%.17g, %.17g), want (%.17g, %.17g)",
				w.seed, w.i, pts[w.i].Lat, pts[w.i].Lng, w.lat, w.lng)
		}
	}
	// The i-th query depends only on (seed, i), not on n — the property
	// the bare math/rand seeding could not give.
	long := queryPoints(box, 10, 1)
	short := queryPoints(box, 3, 1)
	for i := range short {
		if long[i] != short[i] {
			t.Errorf("query %d changed with n: %v vs %v", i, long[i], short[i])
		}
	}
}

// TestRangeQueryBandMatchesBruteForce is the differential wall for the
// latitude band: its counts must equal a FastDistance test of every
// point against every query, on points exactly one radius north,
// south, east or west of a center, centers on the box edges and
// corners, and random points around the box.
func TestRangeQueryBandMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	box := geo.NewBBox(origin, geo.Offset(origin, 4000, 3000))
	for _, radius := range []float64{1, 250, 500, 5000} {
		queries := queryPoints(box, 40, 7)
		queries = append(queries,
			geo.Point{Lat: box.MinLat, Lng: box.MinLng}, geo.Point{Lat: box.MaxLat, Lng: box.MaxLng},
			geo.Point{Lat: box.MinLat, Lng: box.MaxLng}, geo.Point{Lat: box.MaxLat, Lng: box.MinLng},
			geo.Point{Lat: box.MinLat, Lng: origin.Lng}, geo.Point{Lat: box.MaxLat, Lng: origin.Lng})
		var pts []trace.Point
		add := func(p geo.Point) { pts = append(pts, trace.Point{Point: p, Time: time.Unix(int64(len(pts)), 0)}) }
		for _, q := range queries {
			add(q)
			add(geo.Offset(q, 0, radius))
			add(geo.Offset(q, 0, -radius))
			add(geo.Offset(q, radius, 0))
			add(geo.Offset(q, -radius, 0))
			add(geo.Point{Lat: q.Lat + radius/geo.EarthRadius*180/math.Pi, Lng: q.Lng})
		}
		for i := 0; i < 500; i++ {
			add(geo.Offset(origin, rnd.Float64()*6000-1000, rnd.Float64()*5000-1000))
		}
		tr := trace.MustNew("u", pts)

		a := newRangeQueryAcc(queries, radius)
		a.AddPair(tr, tr)
		want := make([]int64, len(queries))
		for _, p := range pts {
			for qi, q := range queries {
				if geo.FastDistance(p.Point, q) <= radius {
					want[qi]++
				}
			}
		}
		if !reflect.DeepEqual(a.orig, want) || !reflect.DeepEqual(a.anon, want) {
			t.Fatalf("radius %v: band counts differ from the full scan:\nwant %v\norig %v\nanon %v", radius, want, a.orig, a.anon)
		}
		if a.origTotal != int64(len(pts)) || a.anonTotal != int64(len(pts)) {
			t.Fatalf("radius %v: totals %d/%d, want %d", radius, a.origTotal, a.anonTotal, len(pts))
		}
	}
}

// TestAccAddPairAllocs pins the geometric accumulators to zero
// allocations per pair once one pair has warmed them up: DistortionAcc
// in both directions re-indexes its own SegmentIndex in place, and
// RangeQueryAcc reuses its neighbor buffer. Each side holds more than
// 256 points, so the distortion samples are past the exact regime's
// buffer after the first pair.
func TestAccAddPairAllocs(t *testing.T) {
	orig := quantTrace("u", 1, 400, 8)
	anon := quantTrace("u", 2, 300, 8)
	rq, err := NewRangeQueryAcc(orig.Bounds(), 100, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	dist, comp := NewDistortionAcc(), NewCompletenessAcc()
	for _, c := range []struct {
		name string
		add  func() error
	}{
		{"distortion", func() error { return dist.AddPair(orig, anon) }},
		{"completeness", func() error { return comp.AddPair(orig, anon) }},
		{"range-query", func() error { rq.AddPair(orig, anon); return nil }},
	} {
		if err := c.add(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { c.add() }); n != 0 {
			t.Errorf("%s: AddPair allocates %v times per pair, want 0", c.name, n)
		}
	}
}
