package risk

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/synth"
)

func commuterFixture(t *testing.T) *synth.Generated {
	t.Helper()
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 12
	cfg.Sampling = 2 * time.Minute
	gen, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	return gen
}

func TestAttackAccMergeOrderInvariance(t *testing.T) {
	gen := commuterFixture(t)
	cfg := DefaultAttackConfig()
	truth := TruthPOIs(gen.Stays, cfg.MatchRadius)
	traces := gen.Dataset.Traces()

	single, err := NewAttackAcc(truth, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		single.AddTrace(tr)
	}
	want := single.Result()

	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		parts := make([]*AttackAcc, 4)
		for i := range parts {
			if parts[i], err = NewAttackAcc(truth, cfg); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range traces {
			parts[rng.Intn(len(parts))].AddTrace(tr)
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		root := parts[0]
		for _, p := range parts[1:] {
			root.Merge(p)
		}
		if got := root.Result(); !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d: merged result differs\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

func TestAttackAccScoresRawHighly(t *testing.T) {
	gen := commuterFixture(t)
	cfg := DefaultAttackConfig()
	acc, err := NewAttackAcc(TruthPOIs(gen.Stays, cfg.MatchRadius), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range gen.Dataset.Traces() {
		acc.AddTrace(tr)
	}
	res := acc.Result()
	if res.PerUser.F1 < 0.5 {
		t.Errorf("raw data should be highly attackable, got per-user %v", res.PerUser)
	}
	if res.Global.Recall < res.PerUser.Recall {
		t.Errorf("global recall %v should be at least per-user recall %v",
			res.Global.Recall, res.PerUser.Recall)
	}
}

func TestAttackAccIgnoresNilAndEmpty(t *testing.T) {
	cfg := DefaultAttackConfig()
	acc, err := NewAttackAcc(map[string][]geo.Point{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc.AddTrace(nil)
	acc.Merge(nil)
	res := acc.Result()
	if res.PerUser.Extracted != 0 || res.Global.Extracted != 0 {
		t.Errorf("empty accumulator extracted something: %+v", res)
	}
}

func TestMatchCountOneToOne(t *testing.T) {
	base := geo.Point{Lat: 45.76, Lng: 4.83}
	truth := []geo.Point{base, geo.Destination(base, 90, 1000)}
	// Two extracted POIs both near the first truth point: only one match.
	extracted := []geo.Point{geo.Offset(base, 10, 0), geo.Offset(base, -10, 0)}
	if got := matchCount(truth, extracted, 250); got != 1 {
		t.Fatalf("matchCount = %d, want 1 (one-to-one)", got)
	}
	// Perfect pairing.
	extracted = []geo.Point{geo.Offset(base, 10, 0), geo.Offset(geo.Destination(base, 90, 1000), 5, 5)}
	if got := matchCount(truth, extracted, 250); got != 2 {
		t.Fatalf("matchCount = %d, want 2", got)
	}
	// Nothing in range.
	extracted = []geo.Point{geo.Destination(base, 0, 5000)}
	if got := matchCount(truth, extracted, 250); got != 0 {
		t.Fatalf("matchCount = %d, want 0", got)
	}
}

func TestScoreString(t *testing.T) {
	s := newScore(10, 8, 6)
	if s.Precision != 0.75 || s.Recall != 0.6 {
		t.Fatalf("score = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	// Degenerate: no truth, no extraction.
	z := newScore(0, 0, 0)
	if z.Precision != 0 || z.Recall != 0 || z.F1 != 0 {
		t.Fatalf("zero score = %+v", z)
	}
}

func TestNewAttackAccValidates(t *testing.T) {
	cfg := DefaultAttackConfig()
	cfg.MatchRadius = 0
	if _, err := NewAttackAcc(nil, cfg); err == nil {
		t.Error("expected error for zero MatchRadius")
	}
	cfg = DefaultAttackConfig()
	cfg.POI.MaxDiameter = -1
	if _, err := NewAttackAcc(nil, cfg); err == nil {
		t.Error("expected error for invalid POI config")
	}
}

// matchCountAllPairs is the reference matchCount must match: the
// all-pairs matcher it replaced, kept verbatim.
func matchCountAllPairs(truth, extracted []geo.Point, radius float64) int {
	type pair struct {
		t, e int
		d    float64
	}
	var pairs []pair
	for ti, tp := range truth {
		for ei, ep := range extracted {
			if d := geo.FastDistance(tp, ep); d <= radius {
				pairs = append(pairs, pair{t: ti, e: ei, d: d})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].d != pairs[j].d {
			return pairs[i].d < pairs[j].d
		}
		if pairs[i].t != pairs[j].t {
			return pairs[i].t < pairs[j].t
		}
		return pairs[i].e < pairs[j].e
	})
	usedT := make(map[int]bool)
	usedE := make(map[int]bool)
	matched := 0
	for _, p := range pairs {
		if usedT[p.t] || usedE[p.e] {
			continue
		}
		usedT[p.t] = true
		usedE[p.e] = true
		matched++
	}
	return matched
}

// evalShapedPOIs returns truth and extracted POI centers shaped like
// mobieval -stays over 300 Promesse-anonymized commuters: 760 truth
// POIs (2 or 3 a user) and 10,566 extracted ones (35 or 36 a user) in
// a city of 5 km radius. Three truth POIs in four leak: half of their
// user's extracted POIs fall within a few hundred meters of one of
// them, and the rest anywhere in the city.
func evalShapedPOIs(seed int64) (truth, extracted map[string][]geo.Point) {
	rnd := rand.New(rand.NewSource(seed))
	center := geo.Point{Lat: 45.76, Lng: 4.83}
	inCity := func() geo.Point {
		r, a := 5000*math.Sqrt(rnd.Float64()), 2*math.Pi*rnd.Float64()
		return geo.Offset(center, r*math.Cos(a), r*math.Sin(a))
	}
	truth = make(map[string][]geo.Point)
	extracted = make(map[string][]geo.Point)
	for u := range 300 {
		user := fmt.Sprintf("u%03d", u)
		nTruth, nExtr := 2, 35
		if u < 160 {
			nTruth = 3
		}
		if u < 66 {
			nExtr = 36
		}
		var revealed []geo.Point
		for range nTruth {
			p := inCity()
			truth[user] = append(truth[user], p)
			if rnd.Intn(4) != 0 {
				revealed = append(revealed, p)
			}
		}
		for range nExtr {
			p := inCity()
			if len(revealed) > 0 && rnd.Intn(2) == 0 {
				near := revealed[rnd.Intn(len(revealed))]
				p = geo.Offset(near, rnd.NormFloat64()*150, rnd.NormFloat64()*150)
			}
			extracted[user] = append(extracted[user], p)
		}
	}
	return truth, extracted
}

// TestMatchCountMatchesAllPairs is the differential wall for the radius
// join under the attack's scoring: matchCount must equal the all-pairs
// matcher on every user's lists and on the pooled ones, at the attack's
// radius and around it, and with every extracted POI duplicated so that
// distances tie.
func TestMatchCountMatchesAllPairs(t *testing.T) {
	truth, extracted := evalShapedPOIs(1)
	var allTruth, allExtr []geo.Point
	for _, u := range sortedKeys(truth) {
		allTruth = append(allTruth, truth[u]...)
		allExtr = append(allExtr, extracted[u]...)
	}
	for _, radius := range []float64{1, 50, 250, 1000} {
		for _, u := range sortedKeys(truth) {
			if got, want := matchCount(truth[u], extracted[u], radius), matchCountAllPairs(truth[u], extracted[u], radius); got != want {
				t.Fatalf("radius %v, user %s: matchCount = %d, all-pairs %d", radius, u, got, want)
			}
		}
		if got, want := matchCount(allTruth, allExtr, radius), matchCountAllPairs(allTruth, allExtr, radius); got != want {
			t.Fatalf("radius %v, pooled: matchCount = %d, all-pairs %d", radius, got, want)
		}
	}
	dup := append(append([]geo.Point(nil), allExtr[:2000]...), allExtr[:2000]...)
	if got, want := matchCount(allTruth, dup, 250), matchCountAllPairs(allTruth, dup, 250); got != want {
		t.Fatalf("duplicated extractions: matchCount = %d, all-pairs %d", got, want)
	}
}

// BenchmarkAttackResult prices the attack's final scoring, which runs
// serially after the scan, at mobieval -stays' shape over 300
// commuters: ~760 truth against ~10.5k extracted POIs (see
// evalShapedPOIs), per user and pooled.
func BenchmarkAttackResult(b *testing.B) {
	truth, extracted := evalShapedPOIs(1)
	a, err := NewAttackAcc(truth, DefaultAttackConfig())
	if err != nil {
		b.Fatal(err)
	}
	a.extracted = extracted
	b.ReportAllocs()
	for b.Loop() {
		a.Result()
	}
}
