package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProjectorRoundTrip(t *testing.T) {
	pr := NewProjector(lyon)
	for _, v := range []XY{{0, 0}, {100, 0}, {0, 100}, {-2500, 4300}, {80000, -60000}} {
		p := pr.ToPoint(v)
		back := pr.ToXY(p)
		if math.Abs(back.X-v.X) > 1e-6 || math.Abs(back.Y-v.Y) > 1e-6 {
			t.Errorf("round trip %v -> %v -> %v", v, p, back)
		}
	}
}

func TestProjectorPreservesDistance(t *testing.T) {
	pr := NewProjector(lyon)
	for _, d := range []float64{10, 100, 1000, 10000} {
		for _, brg := range []float64{0, 30, 90, 200, 330} {
			q := Destination(lyon, brg, d)
			planar := pr.ToXY(q).Dist(pr.ToXY(lyon))
			if relErr := math.Abs(planar-d) / d; relErr > 2e-3 {
				t.Errorf("projected distance at d=%v brg=%v: rel err %v", d, brg, relErr)
			}
		}
	}
}

func TestProjectorOrigin(t *testing.T) {
	if v := NewProjector(lyon).ToXY(lyon); v.Norm() > 1e-9 {
		t.Fatalf("ToXY(origin) = %v, want (0,0)", v)
	}
}

func TestOffset(t *testing.T) {
	q := Offset(lyon, 300, 400)
	if d := Distance(lyon, q); math.Abs(d-500) > 0.5 {
		t.Fatalf("Offset(300,400): distance %v, want 500", d)
	}
}

func TestXYArithmetic(t *testing.T) {
	a := XY{X: 3, Y: 4}
	b := XY{X: 1, Y: -1}
	if got := a.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := a.Add(b); got != (XY{4, 3}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (XY{2, 5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (XY{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dist(XY{X: 3, Y: 9}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

// Property: projection round-trips arbitrary city-scale displacements.
func TestProjectorRoundTripProperty(t *testing.T) {
	pr := NewProjector(lyon)
	f := func(xi, yi int32) bool {
		v := XY{X: float64(xi % 50000), Y: float64(yi % 50000)}
		back := pr.ToXY(pr.ToPoint(v))
		return math.Abs(back.X-v.X) < 1e-5 && math.Abs(back.Y-v.Y) < 1e-5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
