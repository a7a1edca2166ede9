package geoind

import (
	"math"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/stats"
	"mobipriv/internal/trace"
)

var (
	t0     = time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	origin = geo.Point{Lat: 45.7640, Lng: 4.8357}
)

func TestLambertWm1KnownValues(t *testing.T) {
	// Reference values computed to 15 digits with mpmath's lambertw
	// (branch -1); each satisfies w·e^w = x, checked again below.
	tests := []struct{ x, want float64 }{
		{-1 / math.E, -1},
		{-0.1, -3.577152063957297},
		{-0.2, -2.542641357773526},
		{-0.35, -1.349717252192249},
		{-0.01, -6.472775124394005},
		{-1e-6, -16.626508901372475},
	}
	for _, tt := range tests {
		got := lambertWm1(tt.x)
		if math.Abs(got-tt.want) > 1e-9*math.Abs(tt.want) {
			t.Errorf("W_{-1}(%v) = %.15f, want %.15f", tt.x, got, tt.want)
		}
	}
}

func TestLambertWm1Inverse(t *testing.T) {
	// w·e^w must recover x across the domain.
	for _, x := range []float64{-0.3678, -0.3, -0.2, -0.1, -0.01, -1e-4, -1e-8} {
		w := lambertWm1(x)
		if w > -1 {
			t.Errorf("W_{-1}(%v) = %v > -1 (wrong branch)", x, w)
		}
		if back := w * math.Exp(w); math.Abs(back-x) > 1e-12+1e-9*math.Abs(x) {
			t.Errorf("W_{-1}(%v): w·e^w = %v", x, back)
		}
	}
}

func TestLambertWm1OutOfDomain(t *testing.T) {
	for _, x := range []float64{0, 0.5, -0.5, -1} {
		if got := lambertWm1(x); !math.IsNaN(got) {
			t.Errorf("W_{-1}(%v) = %v, want NaN", x, got)
		}
	}
}

func TestInverseCDFMonotoneAndMedian(t *testing.T) {
	const eps = 0.01
	prev := -1.0
	for p := 0.05; p < 1; p += 0.05 {
		r := inverseCDF(eps, p)
		if r <= prev {
			t.Fatalf("inverseCDF not increasing at p=%v", p)
		}
		// Verify against the forward CDF: C(r) = 1 - (1+εr)e^{-εr}.
		c := 1 - (1+eps*r)*math.Exp(-eps*r)
		if math.Abs(c-p) > 1e-9 {
			t.Errorf("C(C^{-1}(%v)) = %v", p, c)
		}
		prev = r
	}
	if got := inverseCDF(eps, 0); got != 0 {
		t.Errorf("inverseCDF(0) = %v", got)
	}
}

func TestSampleNoiseMeanDisplacement(t *testing.T) {
	// E[r] = 2/ε. With ε=0.01 → 200 m. 20k samples give a tight mean.
	m, err := NewForUser(Config{Epsilon: 0.01, Seed: 7}, "u")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	radii := make([]float64, n)
	for i := range radii {
		dx, dy := m.SampleNoise()
		radii[i] = math.Hypot(dx, dy)
	}
	mean := stats.Mean(radii)
	if math.Abs(mean-200) > 6 { // ~3 sigma of the sample mean
		t.Errorf("mean displacement = %v, want ~200", mean)
	}
	// Median: C(r)=0.5 → r ≈ 167.84/ε·0.01... solve numerically: for
	// ε=0.01, median ≈ 167.835 m.
	med := stats.Median(radii)
	if math.Abs(med-167.8) > 6 {
		t.Errorf("median displacement = %v, want ~167.8", med)
	}
}

func TestSampleNoiseIsotropic(t *testing.T) {
	m, err := NewForUser(Config{Epsilon: 0.01, Seed: 3}, "u")
	if err != nil {
		t.Fatal(err)
	}
	var sumX, sumY float64
	const n = 20000
	for i := 0; i < n; i++ {
		dx, dy := m.SampleNoise()
		sumX += dx
		sumY += dy
	}
	// Mean vector should be near zero relative to E[r]=200.
	if math.Abs(sumX/n) > 8 || math.Abs(sumY/n) > 8 {
		t.Errorf("noise not centred: mean=(%v, %v)", sumX/n, sumY/n)
	}
}

func TestPerturbPreservesTimesAndUser(t *testing.T) {
	pts := []trace.Point{
		{Point: origin, Time: t0},
		{Point: geo.Offset(origin, 100, 0), Time: t0.Add(time.Minute)},
		{Point: geo.Offset(origin, 200, 0), Time: t0.Add(2 * time.Minute)},
	}
	tr := trace.MustNew("u", pts)
	m, err := NewForUser(Config{Epsilon: 0.01, Seed: 1}, "u")
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Perturb(tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.User != "u" || out.Len() != 3 {
		t.Fatalf("out = %v", out)
	}
	for i := range pts {
		if !out.Points[i].Time.Equal(pts[i].Time) {
			t.Error("timestamps must be unchanged")
		}
	}
	// Positions must actually move (w.h.p.).
	moved := 0.0
	for i := range pts {
		moved += geo.Distance(out.Points[i].Point, pts[i].Point)
	}
	if moved == 0 {
		t.Error("no displacement at all")
	}
}

func TestPerturbDeterministicPerSeed(t *testing.T) {
	tr := trace.MustNew("u", []trace.Point{
		{Point: origin, Time: t0},
		{Point: geo.Offset(origin, 50, 0), Time: t0.Add(time.Minute)},
	})
	d := trace.MustNewDataset([]*trace.Trace{tr})
	a, err := PerturbDataset(d, Config{Epsilon: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PerturbDataset(d, Config{Epsilon: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Traces()[0].Points {
		if !a.Traces()[0].Points[i].Point.Equal(b.Traces()[0].Points[i].Point) {
			t.Fatal("same seed must give identical noise")
		}
	}
	c, err := PerturbDataset(d, Config{Epsilon: 0.01, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.Traces()[0].Points[0].Point.Equal(c.Traces()[0].Points[0].Point) {
		t.Fatal("different seeds should differ")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewForUser(Config{Epsilon: eps}, "u"); err == nil {
			t.Errorf("Epsilon=%v accepted", eps)
		}
	}
}

func TestExpectedDisplacement(t *testing.T) {
	if got := ExpectedDisplacement(0.01); got != 200 {
		t.Errorf("ExpectedDisplacement = %v", got)
	}
}

func TestEpsilonScaling(t *testing.T) {
	// Doubling epsilon halves the expected displacement.
	sample := func(eps float64) float64 {
		m, err := NewForUser(Config{Epsilon: eps, Seed: 11}, "u")
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const n = 5000
		for i := 0; i < n; i++ {
			dx, dy := m.SampleNoise()
			sum += math.Hypot(dx, dy)
		}
		return sum / n
	}
	m1 := sample(0.01)
	m2 := sample(0.02)
	if ratio := m1 / m2; math.Abs(ratio-2) > 0.15 {
		t.Errorf("displacement ratio = %v, want ~2", ratio)
	}
}

func BenchmarkPerturbPoint(b *testing.B) {
	m, err := NewForUser(Config{Epsilon: 0.01, Seed: 1}, "u")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = m.SampleNoise()
	}
}
