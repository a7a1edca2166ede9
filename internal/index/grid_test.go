package index

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"mobipriv/internal/geo"
)

var (
	origin = geo.Point{Lat: 45.7640, Lng: 4.8357}
	epoch  = time.Date(2015, 6, 30, 0, 0, 0, 0, time.UTC)
)

func TestSTGridWithinST(t *testing.T) {
	g := NewSTGrid(origin, 100, time.Minute, epoch)
	at := func(dx float64, offset time.Duration, id int) {
		g.Insert(geo.Offset(origin, dx, 0), epoch.Add(offset), id)
	}
	at(0, 0, 0)
	at(10, 30*time.Second, 1)   // near in space and time
	at(10, 10*time.Minute, 2)   // near in space, far in time
	at(5000, 30*time.Second, 3) // far in space, near in time
	if got := g.WithinST(origin, epoch, 10000, time.Hour); !equalInts(got, []int{0, 1, 2, 3}) {
		t.Fatalf("WithinST everything = %v, want [0 1 2 3]", got)
	}
	got := g.WithinST(origin, epoch, 50, time.Minute)
	if !equalInts(got, []int{0, 1}) {
		t.Fatalf("WithinST = %v, want [0 1]", got)
	}
	// Wider time window picks up id 2.
	got = g.WithinST(origin, epoch, 50, 15*time.Minute)
	if !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("WithinST wide = %v, want [0 1 2]", got)
	}
	// Negative inputs.
	if got := g.WithinST(origin, epoch, -1, time.Minute); got != nil {
		t.Fatalf("negative radius = %v", got)
	}
	if got := g.WithinST(origin, epoch, 10, -time.Second); got != nil {
		t.Fatalf("negative window = %v", got)
	}
}

func TestSTGridWindowBoundaryInclusive(t *testing.T) {
	g := NewSTGrid(origin, 100, time.Minute, epoch)
	g.Insert(origin, epoch.Add(time.Minute), 7)
	// |t - ts| == w exactly: inclusive.
	if got := g.WithinST(origin, epoch, 10, time.Minute); !equalInts(got, []int{7}) {
		t.Fatalf("boundary = %v, want [7]", got)
	}
	if got := g.WithinST(origin, epoch, 10, time.Minute-time.Nanosecond); got != nil {
		t.Fatalf("just inside boundary = %v, want nil", got)
	}
}

func TestSTGridBruteForceAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := NewSTGrid(origin, 80, 2*time.Minute, epoch)
	pr := geo.NewProjector(origin)
	type obs struct {
		p  geo.Point
		ts time.Time
		id int
	}
	var all []obs
	for i := 0; i < 400; i++ {
		o := obs{
			p:  geo.Offset(origin, rng.Float64()*3000-1500, rng.Float64()*3000-1500),
			ts: epoch.Add(time.Duration(rng.Intn(3600)) * time.Second),
			id: i,
		}
		g.Insert(o.p, o.ts, o.id)
		all = append(all, o)
	}
	for trial := 0; trial < 40; trial++ {
		q := geo.Offset(origin, rng.Float64()*3000-1500, rng.Float64()*3000-1500)
		qt := epoch.Add(time.Duration(rng.Intn(3600)) * time.Second)
		radius := rng.Float64() * 400
		w := time.Duration(rng.Intn(600)) * time.Second
		got := g.WithinST(q, qt, radius, w)
		var want []int
		qv := pr.ToXY(q)
		for _, o := range all {
			dt := o.ts.Sub(qt)
			if dt < 0 {
				dt = -dt
			}
			if dt <= w && pr.ToXY(o.p).Dist(qv) <= radius {
				want = append(want, o.id)
			}
		}
		sort.Ints(want)
		if !equalInts(got, want) {
			t.Fatalf("trial %d: WithinST = %v, brute = %v", trial, got, want)
		}
	}
}

func TestSTGridPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero cell":   func() { NewSTGrid(origin, 0, time.Minute, epoch) },
		"zero window": func() { NewSTGrid(origin, 10, 0, epoch) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkSTGridWithinST(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewSTGrid(origin, 100, time.Minute, epoch)
	for i := 0; i < 100000; i++ {
		p := geo.Offset(origin, rng.Float64()*20000-10000, rng.Float64()*20000-10000)
		g.Insert(p, epoch.Add(time.Duration(rng.Intn(86400))*time.Second), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.WithinST(origin, epoch.Add(12*time.Hour), 200, 5*time.Minute)
	}
}
