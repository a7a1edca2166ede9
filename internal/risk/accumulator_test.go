package risk

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/poi"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

var t0 = time.Date(2015, 6, 29, 8, 0, 0, 0, time.UTC)

// walkTrace builds a random trace mixing dwells and travel legs.
func walkTrace(t *testing.T, seed int64, n int) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pos := geo.Point{Lat: 45.76, Lng: 4.83}
	now := t0
	pts := make([]trace.Point, 0, n)
	for len(pts) < n {
		if rng.Intn(2) == 0 {
			// Dwell: jitter around pos for a random while.
			for k := rng.Intn(12) + 1; k > 0 && len(pts) < n; k-- {
				p := geo.Destination(pos, rng.Float64()*360, rng.Float64()*40)
				pts = append(pts, trace.Point{Point: p, Time: now})
				now = now.Add(time.Duration(rng.Intn(120)+30) * time.Second)
			}
		} else {
			// Travel: a few long hops.
			for k := rng.Intn(5) + 1; k > 0 && len(pts) < n; k-- {
				pos = geo.Destination(pos, rng.Float64()*360, 150+rng.Float64()*400)
				pts = append(pts, trace.Point{Point: pos, Time: now})
				now = now.Add(time.Duration(rng.Intn(90)+30) * time.Second)
			}
		}
	}
	tr, err := trace.New("walker", pts)
	if err != nil {
		t.Fatalf("trace.New: %v", err)
	}
	return tr
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	cfgs := []poi.Config{
		poi.DefaultConfig(),
		{MaxDiameter: 50, MinDuration: 5 * time.Minute},
		{MaxDiameter: 100, MinDuration: 2 * time.Minute},
		{MaxDiameter: 300, MinDuration: 20 * time.Minute},
	}
	for seed := int64(1); seed <= 20; seed++ {
		tr := walkTrace(t, seed, 400)
		for _, cfg := range cfgs {
			want, err := poi.Stays(tr, cfg)
			if err != nil {
				t.Fatalf("poi.Stays: %v", err)
			}
			acc, err := NewExactAccumulator(cfg)
			if err != nil {
				t.Fatalf("NewExactAccumulator: %v", err)
			}
			got := acc.TraceStays(tr)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d cfg %+v: streaming stays differ\n got %v\nwant %v",
					seed, cfg, got, want)
			}
			if acc.overflows != 0 {
				t.Errorf("seed %d: exact accumulator reported overflows", seed)
			}
		}
	}
}

func TestAccumulatorMatchesBatchOnSynth(t *testing.T) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 8
	cfg.Days = 2
	gen, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	pcfg := poi.DefaultConfig()
	for _, tr := range gen.Dataset.Traces() {
		want, err := poi.Stays(tr, pcfg)
		if err != nil {
			t.Fatalf("poi.Stays: %v", err)
		}
		acc, err := NewExactAccumulator(pcfg)
		if err != nil {
			t.Fatalf("NewExactAccumulator: %v", err)
		}
		if got := acc.TraceStays(tr); !reflect.DeepEqual(got, want) {
			t.Errorf("user %s: streaming stays differ from batch (%d vs %d)",
				tr.User, len(got), len(want))
		}
	}
}

func TestAccumulatorReusableAcrossTraces(t *testing.T) {
	cfg := poi.DefaultConfig()
	acc, err := NewExactAccumulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(30); seed < 33; seed++ {
		tr := walkTrace(t, seed, 200)
		want, _ := poi.Stays(tr, cfg)
		if got := acc.TraceStays(tr); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: reused accumulator diverged from batch", seed)
		}
	}
}

func TestAccumulatorCapOverflow(t *testing.T) {
	// Sub-second sampling against a long MinDuration forces the pending
	// buffer past a tiny cap.
	cfg := poi.Config{MaxDiameter: 200, MinDuration: time.Hour}
	acc, err := NewAccumulator(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := geo.Point{Lat: 45.76, Lng: 4.83}
	for i := 0; i < 100; i++ {
		p := trace.Point{Point: base, Time: t0.Add(time.Duration(i) * time.Second)}
		if _, ok := acc.Push(p); ok {
			t.Fatal("no stay should complete below MinDuration")
		}
	}
	if acc.overflows == 0 {
		t.Error("expected pending-buffer overflows with cap 4")
	}
	if len(acc.pending) > 4 {
		t.Errorf("pending grew to %d despite cap 4", len(acc.pending))
	}
}

func TestNewAccumulatorValidates(t *testing.T) {
	if _, err := NewAccumulator(poi.Config{}, 0); err == nil {
		t.Error("expected error for zero config")
	}
	if _, err := NewAccumulator(poi.Config{MaxDiameter: 10, MinDuration: time.Minute, MergeRadius: -1}, 0); err == nil {
		t.Error("expected error for negative MergeRadius")
	}
}

// FuzzAccumulator checks the incremental detector against the batch
// detector on arbitrary inputs: no panics ever, and — when the pending
// buffer never overflowed — stays identical to poi.Stays.
func FuzzAccumulator(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(20))
	f.Add(int64(7), uint8(3), uint8(90))
	f.Add(int64(42), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, cap8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := poi.Config{
			MaxDiameter: 20 + rng.Float64()*300,
			MinDuration: time.Duration(1+rng.Intn(600)) * time.Second,
		}
		pts := make([]trace.Point, 0, int(n))
		pos := geo.Point{Lat: 45.76, Lng: 4.83}
		now := t0
		for i := 0; i < int(n); i++ {
			pos = geo.Destination(pos, rng.Float64()*360, rng.Float64()*float64(rng.Intn(400)))
			now = now.Add(time.Duration(rng.Intn(300)) * time.Second)
			pts = append(pts, trace.Point{Point: pos, Time: now})
		}

		exact, err := NewExactAccumulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []poi.Stay
		for _, p := range pts {
			if s, ok := exact.Push(p); ok {
				got = append(got, s)
			}
		}
		if s, ok := exact.Flush(); ok {
			got = append(got, s)
		}

		var want []poi.Stay
		if len(pts) > 0 {
			// Times may repeat (rng.Intn(300) can be 0); the batch loop
			// itself has no strictly-increasing requirement, so feed it
			// directly rather than through trace.New.
			want, err = poi.Stays(&trace.Trace{User: "f", Points: pts}, cfg)
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("uncapped streaming stays diverge from batch:\n got %v\nwant %v", got, want)
		}

		// Capped detector: must not panic, must respect the cap, and
		// must be exact whenever it never overflowed.
		capped, err := NewAccumulator(cfg, int(cap8)+1)
		if err != nil {
			t.Fatal(err)
		}
		var cgot []poi.Stay
		for _, p := range pts {
			if s, ok := capped.Push(p); ok {
				cgot = append(cgot, s)
			}
		}
		if s, ok := capped.Flush(); ok {
			cgot = append(cgot, s)
		}
		if capped.overflows == 0 && !reflect.DeepEqual(cgot, want) {
			t.Fatalf("capped detector diverged without overflowing")
		}
		for _, s := range cgot {
			if s.Count <= 0 || s.Leave.Before(s.Enter) {
				t.Fatalf("capped detector emitted malformed stay %+v", s)
			}
		}
	})
}

func BenchmarkRiskStream(b *testing.B) {
	tr := func() *trace.Trace {
		rng := rand.New(rand.NewSource(9))
		pos := geo.Point{Lat: 45.76, Lng: 4.83}
		now := t0
		pts := make([]trace.Point, 100_000)
		for i := range pts {
			pos = geo.Destination(pos, rng.Float64()*360, rng.Float64()*120)
			now = now.Add(30 * time.Second)
			pts[i] = trace.Point{Point: pos, Time: now}
		}
		return &trace.Trace{User: "bench", Points: pts}
	}()
	cfg := DefaultMonitorConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc, err := NewAccumulator(cfg.Stay, cfg.MaxPending)
		if err != nil {
			b.Fatal(err)
		}
		stays := 0
		for _, p := range tr.Points {
			if _, ok := acc.Push(p); ok {
				stays++
			}
		}
		acc.Flush()
	}
	b.ReportMetric(float64(len(tr.Points))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
