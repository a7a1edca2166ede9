package mobipriv

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// TestParallelSmoothingDeterministic is the determinism contract of the
// parallel runtime: smoothing a multi-trace dataset with any worker
// count produces output identical to the serial path.
func TestParallelSmoothingDeterministic(t *testing.T) {
	d := commuterData(t, 16).Dataset
	mech := MustFromSpec("promesse")
	serial, err := NewRunner(WithWorkers(1)).Run(context.Background(), mech, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.NumCPU(), 32} {
		parallel, err := NewRunner(WithWorkers(workers)).Run(context.Background(), mech, d)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !datasetsEqual(serial.Dataset, parallel.Dataset) {
			t.Errorf("workers=%d: output differs from serial run", workers)
		}
		sd, pd := serial.DroppedUsers(), parallel.DroppedUsers()
		if len(sd) != len(pd) {
			t.Errorf("workers=%d: dropped %d users, serial dropped %d", workers, len(pd), len(sd))
		}
	}
}

// TestParallelGeoIDeterministic: per-trace RNG derivation makes the
// geo-indistinguishability baseline independent of the worker count.
func TestParallelGeoIDeterministic(t *testing.T) {
	d := commuterData(t, 12).Dataset
	mech := MustFromSpec("geoi(0.01)")
	serial, err := NewRunner(WithWorkers(1)).Run(context.Background(), mech, d)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(WithWorkers(8)).Run(context.Background(), mech, d)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(serial.Dataset, parallel.Dataset) {
		t.Error("geoi output depends on worker count")
	}
}

// TestParallelPipelineDeterministic runs the full pipeline under the
// Runner and checks it matches a plain Apply.
func TestParallelPipelineDeterministic(t *testing.T) {
	d := commuterData(t, 12).Dataset
	mech := MustFromSpec("pipeline")
	want, err := mech.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(WithWorkers(runtime.NumCPU())).Run(context.Background(), mech, d)
	if err != nil {
		t.Fatal(err)
	}
	if !datasetsEqual(want.Dataset, got.Dataset) {
		t.Error("pipeline output depends on worker count")
	}
	if want.Zones() != got.Zones() || want.Swaps() != got.Swaps() {
		t.Error("pipeline reports depend on worker count")
	}
}

func TestRunnerCancellation(t *testing.T) {
	d := commuterData(t, 8).Dataset
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []string{"promesse", "pipeline", "geoi(0.01)", "w4m(k=2,delta=500)", "raw"} {
		_, err := NewRunner(WithWorkers(4)).Run(ctx, MustFromSpec(spec), d)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", spec, err)
		}
	}
}

func TestRunnerNilMechanism(t *testing.T) {
	if _, err := NewRunner().Run(context.Background(), nil, nil); err == nil {
		t.Fatal("nil mechanism accepted")
	}
}

func TestPipelineStageReports(t *testing.T) {
	d := commuterData(t, 10).Dataset
	mech := Pipeline(DefaultMixZoneSwap(), DefaultSpeedSmooth(), DefaultPseudonymize())
	res, err := mech.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	wantStages := []string{"mixzones", "smooth", "pseudonymize"}
	if len(res.Reports) != len(wantStages) {
		t.Fatalf("got %d reports, want %d", len(res.Reports), len(wantStages))
	}
	for i, want := range wantStages {
		if res.Reports[i].Stage != want {
			t.Errorf("report %d stage = %q, want %q", i, res.Reports[i].Stage, want)
		}
	}
	if _, ok := res.Report("smooth"); !ok {
		t.Error("Report(smooth) not found")
	}
	if _, ok := res.Report("quantum"); ok {
		t.Error("Report(quantum) found")
	}
	// The aggregate accessors equal the per-stage sums.
	var zones, swaps, supp int
	for _, rep := range res.Reports {
		zones += rep.Zones
		swaps += rep.Swaps
		supp += rep.Suppressed
	}
	if res.Zones() != zones || res.Swaps() != swaps || res.SuppressedPoints() != supp {
		t.Error("aggregates disagree with per-stage reports")
	}
}

// TestPipelineSubsetStages: stages compose freely; a smoothing-only
// pipeline keeps identities and reports identity ground truth.
func TestPipelineSubsetStages(t *testing.T) {
	d := commuterData(t, 6).Dataset
	res, err := Pipeline(DefaultSpeedSmooth()).Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range res.Dataset.Users() {
		if d.ByUser(u) == nil {
			t.Errorf("identity %q changed by smoothing-only pipeline", u)
		}
		if owner := res.MajorityOwner(u); owner != u {
			t.Errorf("MajorityOwner(%q) = %q without a swap stage", u, owner)
		}
	}
	if owner := res.MajorityOwner("ghost"); owner != "" {
		t.Errorf("MajorityOwner(ghost) = %q", owner)
	}
}

func TestPipelineInvalidStageConfig(t *testing.T) {
	d := commuterData(t, 4).Dataset
	cases := []Stage{
		MixZoneSwap{Radius: 0, Window: 1},
		MixZoneSwap{Radius: 100, Window: 0},
		MixZoneSwap{Radius: 100, Window: 1, Cooldown: -1},
		SpeedSmooth{Epsilon: 0},
	}
	for i, st := range cases {
		if _, err := Pipeline(st).Apply(context.Background(), d); err == nil {
			t.Errorf("case %d: invalid stage accepted", i)
		}
	}
}

// TestResultPseudonymRoundTrip checks the forward and reverse pseudonym
// maps stay consistent (the reverse map replaced a linear scan).
func TestResultPseudonymRoundTrip(t *testing.T) {
	g := commuterData(t, 10)
	res, err := MustFromSpec("pipeline").Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	for pre := range res.pseudonym {
		pub, ok := res.PseudonymOf(pre)
		if !ok {
			t.Fatalf("PseudonymOf(%q) missing", pre)
		}
		back, ok := res.prePseudonym(pub)
		if !ok || back != pre {
			t.Fatalf("prePseudonym(%q) = %q, %v; want %q", pub, back, ok, pre)
		}
	}
}
