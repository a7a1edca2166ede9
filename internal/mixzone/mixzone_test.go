package mixzone

import (
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/trace"
)

var (
	t0     = time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	origin = geo.Point{Lat: 45.7640, Lng: 4.8357}
)

// eastbound returns a trace moving east through origin: from -extent to
// +extent meters (relative to origin along the E-W axis), at speed m/s,
// sampled every step. It passes the origin at half the total duration.
func eastbound(user string, extent, speed float64, step time.Duration) *trace.Trace {
	var pts []trace.Point
	now := t0
	for x := -extent; x <= extent; x += speed * step.Seconds() {
		pts = append(pts, trace.Point{Point: geo.Offset(origin, x, 0), Time: now})
		now = now.Add(step)
	}
	return trace.MustNew(user, pts)
}

// westbound is the mirror image of eastbound.
func westbound(user string, extent, speed float64, step time.Duration) *trace.Trace {
	var pts []trace.Point
	now := t0
	for x := extent; x >= -extent; x -= speed * step.Seconds() {
		pts = append(pts, trace.Point{Point: geo.Offset(origin, x, 0), Time: now})
		now = now.Add(step)
	}
	return trace.MustNew(user, pts)
}

// crossingPair: A eastbound and B westbound, both passing the origin at
// the same instant — one natural crossing.
func crossingPair() *trace.Dataset {
	a := eastbound("alice", 1000, 10, 10*time.Second)
	b := westbound("bob", 1000, 10, 10*time.Second)
	return trace.MustNewDataset([]*trace.Trace{a, b})
}

func TestDetectZonesFindsCrossing(t *testing.T) {
	d := crossingPair()
	zones := DetectZones(d, DefaultConfig())
	if len(zones) != 1 {
		t.Fatalf("detected %d zones, want 1", len(zones))
	}
	z := zones[0]
	if d := geo.Distance(z.Center, origin); d > 150 {
		t.Errorf("zone center %v m from the crossing point", d)
	}
	// Crossing happens at t0 + 100s (alice at x=0 after 1000 m at 10 m/s).
	want := t0.Add(100 * time.Second)
	if diff := z.Time.Sub(want); diff > 30*time.Second || diff < -30*time.Second {
		t.Errorf("zone time = %v, want ~%v", z.Time, want)
	}
	if len(z.Participants) != 2 || z.Participants[0] != "alice" || z.Participants[1] != "bob" {
		t.Errorf("participants = %v", z.Participants)
	}
}

func TestDetectZonesNoMeeting(t *testing.T) {
	// Two users on parallel tracks 2 km apart never meet.
	a := eastbound("alice", 1000, 10, 10*time.Second)
	bpts := make([]trace.Point, 0)
	now := t0
	for x := -1000.0; x <= 1000; x += 100 {
		bpts = append(bpts, trace.Point{Point: geo.Offset(origin, x, 2000), Time: now})
		now = now.Add(10 * time.Second)
	}
	b := trace.MustNew("bob", bpts)
	d := trace.MustNewDataset([]*trace.Trace{a, b})
	if zones := DetectZones(d, DefaultConfig()); len(zones) != 0 {
		t.Fatalf("detected %d zones on parallel tracks", len(zones))
	}
}

func TestDetectZonesSingleUser(t *testing.T) {
	d := trace.MustNewDataset([]*trace.Trace{eastbound("solo", 500, 10, 10*time.Second)})
	if zones := DetectZones(d, DefaultConfig()); zones != nil {
		t.Fatalf("zones = %v for single user", zones)
	}
}

func TestDetectZonesCooldown(t *testing.T) {
	// Two users walking together for 30 minutes: cooldown must coalesce
	// the co-location into few events.
	mk := func(user string, dy float64) *trace.Trace {
		var pts []trace.Point
		now := t0
		for i := 0; i < 60; i++ { // 30 min, 30s sampling, moving east at 1 m/s
			pts = append(pts, trace.Point{Point: geo.Offset(origin, float64(i)*30, dy), Time: now})
			now = now.Add(30 * time.Second)
		}
		return trace.MustNew(user, pts)
	}
	d := trace.MustNewDataset([]*trace.Trace{mk("a", 0), mk("b", 20)})
	cfg := DefaultConfig()
	zones := DetectZones(d, cfg)
	// 30 minutes of co-location with a 15-minute cooldown: at most 3
	// events, at least 1.
	if len(zones) < 1 || len(zones) > 3 {
		t.Fatalf("detected %d zones, want 1..3 with cooldown", len(zones))
	}
}

func TestDetectZonesMultiUser(t *testing.T) {
	// Three users at the same place at the same time: one zone with 3
	// participants.
	mk := func(user string, brg float64) *trace.Trace {
		var pts []trace.Point
		now := t0
		for x := -500.0; x <= 500; x += 100 {
			pts = append(pts, trace.Point{Point: geo.Destination(origin, brg, x), Time: now})
			now = now.Add(10 * time.Second)
		}
		return trace.MustNew(user, pts)
	}
	d := trace.MustNewDataset([]*trace.Trace{mk("a", 0), mk("b", 90), mk("c", 45)})
	zones := DetectZones(d, DefaultConfig())
	if len(zones) != 1 {
		t.Fatalf("detected %d zones, want 1", len(zones))
	}
	if len(zones[0].Participants) != 3 {
		t.Fatalf("participants = %v, want 3 users", zones[0].Participants)
	}
}

func TestApplyConservation(t *testing.T) {
	d := crossingPair()
	res, err := Apply(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Dataset.Validate(); err != nil {
		t.Fatalf("published dataset invalid: %v", err)
	}
	if res.Suppressed == 0 {
		t.Error("crossing should suppress in-zone points")
	}
	if got := res.Dataset.TotalPoints() + res.Suppressed; got != d.TotalPoints() {
		t.Errorf("points out %d + suppressed %d != in %d",
			res.Dataset.TotalPoints(), res.Suppressed, d.TotalPoints())
	}
	// Suppressed points are only those inside the zone.
	z := res.Zones[0]
	for _, tr := range res.Dataset.Traces() {
		for _, p := range tr.Points {
			dt := p.Time.Sub(z.Time)
			if dt < 0 {
				dt = -dt
			}
			if dt <= DefaultConfig().suppressWindow() && geo.FastDistance(p.Point, z.Center) <= z.Radius {
				t.Fatalf("point %v inside the zone survived suppression", p)
			}
		}
	}
}

func TestApplySwapGroundTruth(t *testing.T) {
	d := crossingPair()
	// Try seeds until the permutation actually swaps — uniform over 2
	// permutations, so a handful of seeds suffice.
	var res *Result
	for seed := int64(1); seed < 20; seed++ {
		cfg := DefaultConfig()
		cfg.SwapSeed = seed
		r, err := Apply(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.SwapCount() == 1 {
			res = r
			break
		}
	}
	if res == nil {
		t.Fatal("no seed produced a swap in 20 tries (p < 1e-6)")
	}
	// Before the zone, output "alice" carries alice; after it, bob.
	early := t0.Add(10 * time.Second)
	late := t0.Add(190 * time.Second)
	if u, ok := originalAt(res, "alice", early); !ok || u != "alice" {
		t.Errorf("OriginalAt(alice, early) = %q, %v", u, ok)
	}
	if u, ok := originalAt(res, "alice", late); !ok || u != "bob" {
		t.Errorf("OriginalAt(alice, late) = %q, %v (swap not reflected)", u, ok)
	}
	if u, ok := originalAt(res, "bob", late); !ok || u != "alice" {
		t.Errorf("OriginalAt(bob, late) = %q, %v", u, ok)
	}
	// The published "alice" trace physically continues east-to-west...
	// no: it continues alice's prefix (heading east toward the zone)
	// with bob's suffix (continuing west-to-east? bob moves west).
	// Verify continuity: consecutive points around the seam are within
	// 2×Radius + one sampling step of travel.
	for _, tr := range res.Dataset.Traces() {
		for i := 1; i < tr.Len(); i++ {
			gap := geo.Distance(tr.Points[i-1].Point, tr.Points[i].Point)
			dt := tr.Points[i].Time.Sub(tr.Points[i-1].Time).Seconds()
			if gap > 2*100+dt*15 {
				t.Errorf("output %s: %v m jump at point %d", tr.User, gap, i)
			}
		}
	}
}

func TestApplyNoSwap(t *testing.T) {
	d := crossingPair()
	cfg := DefaultConfig()
	cfg.NoSwap = true
	res, err := Apply(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwapCount() != 0 {
		t.Errorf("SwapCount = %d with NoSwap", res.SwapCount())
	}
	if res.Suppressed == 0 {
		t.Error("NoSwap must still suppress")
	}
	// Identities unchanged: every segment maps an output to itself.
	for _, s := range res.Segments {
		if s.Output != s.Original {
			t.Errorf("segment %+v changed identity despite NoSwap", s)
		}
	}
}

func TestApplyNoSuppress(t *testing.T) {
	d := crossingPair()
	cfg := DefaultConfig()
	cfg.NoSuppress = true
	res, err := Apply(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Suppressed != 0 {
		t.Errorf("Suppressed = %d with NoSuppress", res.Suppressed)
	}
	if res.Dataset.TotalPoints() != d.TotalPoints() {
		t.Error("NoSuppress must keep every point")
	}
}

func TestApplyNoZonesIsIdentity(t *testing.T) {
	a := eastbound("alice", 500, 10, 10*time.Second)
	d := trace.MustNewDataset([]*trace.Trace{a})
	res, err := Apply(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Zones) != 0 || res.Suppressed != 0 {
		t.Fatalf("zones=%d suppressed=%d for single user", len(res.Zones), res.Suppressed)
	}
	if res.Dataset.TotalPoints() != d.TotalPoints() || res.Dataset.Len() != 1 {
		t.Error("dataset must pass through unchanged")
	}
	// Ground truth still covers the whole trace.
	if u, ok := originalAt(res, "alice", t0.Add(30*time.Second)); !ok || u != "alice" {
		t.Errorf("OriginalAt = %q, %v", u, ok)
	}
}

func TestApplyValidation(t *testing.T) {
	d := crossingPair()
	bad := DefaultConfig()
	bad.Radius = 0
	if _, err := Apply(d, bad); err == nil {
		t.Error("Radius=0 accepted")
	}
	bad = DefaultConfig()
	bad.Window = 0
	if _, err := Apply(d, bad); err == nil {
		t.Error("Window=0 accepted")
	}
	bad = DefaultConfig()
	bad.Cooldown = -time.Second
	if _, err := Apply(d, bad); err == nil {
		t.Error("negative Cooldown accepted")
	}
}

// originalAt returns the original user whose observations the given
// output identity carries at instant ts, according to the ground-truth
// segments. ok is false when no segment covers (output, ts).
func originalAt(r *Result, output string, ts time.Time) (string, bool) {
	for _, s := range r.Segments {
		if s.Output == output && !ts.Before(s.From) && !ts.After(s.To) {
			return s.Original, true
		}
	}
	return "", false
}

func TestOriginalAtUnknown(t *testing.T) {
	d := crossingPair()
	res, err := Apply(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := originalAt(res, "nobody", t0); ok {
		t.Error("unknown output identity should not resolve")
	}
	if _, ok := originalAt(res, "alice", t0.Add(-time.Hour)); ok {
		t.Error("time outside any segment should not resolve")
	}
}

func TestSegmentsPartitionTimeline(t *testing.T) {
	d := crossingPair()
	cfg := DefaultConfig()
	cfg.SwapSeed = 3
	res, err := Apply(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// For each original user, its segments (grouped over outputs) must
	// tile the trace's time span without gaps.
	for _, u := range d.Users() {
		var segs []Segment
		for _, s := range res.Segments {
			if s.Original == u {
				segs = append(segs, s)
			}
		}
		if len(segs) == 0 {
			t.Fatalf("no segments for %s", u)
		}
		tr := d.ByUser(u)
		if !segs[0].From.Equal(tr.Start().Time) {
			t.Errorf("%s: first segment starts %v, trace starts %v", u, segs[0].From, tr.Start().Time)
		}
		for i := 1; i < len(segs); i++ {
			if !segs[i].From.Equal(segs[i-1].To) {
				t.Errorf("%s: gap between segments %d and %d", u, i-1, i)
			}
		}
		if !segs[len(segs)-1].To.Equal(tr.End().Time) {
			t.Errorf("%s: last segment ends %v, trace ends %v", u, segs[len(segs)-1].To, tr.End().Time)
		}
	}
}
