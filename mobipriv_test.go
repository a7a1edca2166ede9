package mobipriv

import (
	"context"
	"strings"
	"testing"
	"time"

	"mobipriv/internal/attack/poiattack"
	"mobipriv/internal/geo"
	"mobipriv/internal/synth"
)

func commuterData(t testing.TB, users int) *synth.Generated {
	t.Helper()
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = users
	cfg.Sampling = 2 * time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAnonymizeEndToEnd(t *testing.T) {
	g := commuterData(t, 12)
	anon := MustFromSpec("pipeline")
	res, err := anon.Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Dataset.Validate(); err != nil {
		t.Fatalf("published dataset invalid: %v", err)
	}
	// All published identities are pseudonyms.
	for _, u := range res.Dataset.Users() {
		if !strings.HasPrefix(u, "p") {
			t.Errorf("published identity %q is not pseudonymized", u)
		}
		if g.Dataset.ByUser(u) != nil {
			t.Errorf("pseudonym %q collides with an original user", u)
		}
	}
	if res.Dataset.Len()+len(res.DroppedUsers()) != g.Dataset.Len() {
		t.Errorf("published %d + dropped %d != input %d",
			res.Dataset.Len(), len(res.DroppedUsers()), g.Dataset.Len())
	}
}

func TestAnonymizeHidesPOIs(t *testing.T) {
	g := commuterData(t, 12)
	anon := MustFromSpec("pipeline")
	res, err := anon.Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := poiattack.Evaluate(g.Dataset, g.Stays, poiattack.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	after, err := poiattack.Evaluate(res.Dataset, g.Stays, poiattack.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if raw.Global.F1 < 0.6 {
		t.Fatalf("attack is broken: raw global F1 = %v", raw.Global.F1)
	}
	if after.Global.F1 > raw.Global.F1*0.5 {
		t.Errorf("pipeline did not halve POI retrieval: %v -> %v", raw.Global.F1, after.Global.F1)
	}
}

func TestAnonymizeGroundTruth(t *testing.T) {
	g := commuterData(t, 10)
	anon := MustFromSpec("pipeline")
	res, err := anon.Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	// Every published identity resolves to some original user at the
	// midpoint of its span, and MajorityOwner is consistent with the
	// original user set.
	for _, tr := range res.Dataset.Traces() {
		mid := tr.Start().Time.Add(tr.Duration() / 2)
		u, ok := res.OriginalAt(tr.User, mid)
		if !ok {
			t.Errorf("OriginalAt(%q, mid) failed", tr.User)
			continue
		}
		if g.Dataset.ByUser(u) == nil {
			t.Errorf("OriginalAt returned unknown user %q", u)
		}
		owner := res.MajorityOwner(tr.User)
		if owner == "" || g.Dataset.ByUser(owner) == nil {
			t.Errorf("MajorityOwner(%q) = %q", tr.User, owner)
		}
	}
	// Unknown identity.
	if _, ok := res.OriginalAt("nope", time.Now()); ok {
		t.Error("unknown identity resolved")
	}
	if res.MajorityOwner("nope") != "" {
		t.Error("unknown identity has an owner")
	}
}

func TestAnonymizeDeterministic(t *testing.T) {
	g := commuterData(t, 8)
	anon := MustFromSpec("pipeline")
	r1, err := anon.Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := anon.Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Dataset.TotalPoints() != r2.Dataset.TotalPoints() || r1.Zones() != r2.Zones() || r1.Swaps() != r2.Swaps() {
		t.Fatal("same spec + same input must give identical results")
	}
	u1, u2 := r1.Dataset.Users(), r2.Dataset.Users()
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("pseudonym assignment must be deterministic")
		}
	}
}

func TestAnonymizeAblations(t *testing.T) {
	g := commuterData(t, 10)

	r1, err := MustFromSpec("pipeline(no-swap=true)").Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Swaps() != 0 {
		t.Errorf("no-swap: %d swaps", r1.Swaps())
	}

	r2, err := MustFromSpec("pipeline(no-suppress=true)").Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SuppressedPoints() != 0 {
		t.Errorf("no-suppress: %d suppressed", r2.SuppressedPoints())
	}

	r3, err := MustFromSpec("pipeline(no-smooth=true)").Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	// Without smoothing nothing is dropped for shortness and POIs leak.
	after, err := poiattack.Evaluate(r3.Dataset, g.Stays, poiattack.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if after.Global.F1 < 0.5 {
		t.Errorf("smoothing disabled but POIs hidden anyway (F1=%v): ablation not effective", after.Global.F1)
	}
}

func TestNewTraceNewDataset(t *testing.T) {
	t0 := time.Date(2015, 6, 30, 8, 0, 0, 0, time.UTC)
	origin := geo.Point{Lat: 45.76, Lng: 4.83}
	tr, err := NewTrace("u", []Point{
		{Point: origin, Time: t0},
		{Point: geo.Offset(origin, 100, 0), Time: t0.Add(time.Minute)},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDataset([]*Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatal("dataset should hold one trace")
	}
	if _, err := NewTrace("", nil); err == nil {
		t.Fatal("invalid trace accepted")
	}
}
