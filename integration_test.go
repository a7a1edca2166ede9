package mobipriv_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"mobipriv"
	"mobipriv/internal/attack/poiattack"
	"mobipriv/internal/metrics"
	"mobipriv/internal/synth"
)

// TestHeadlineTaxiReproduction is the repository's single-number smoke
// check of the paper's thesis on the fleet workload: POI retrieval is
// eliminated while spatial coverage survives.
func TestHeadlineTaxiReproduction(t *testing.T) {
	cfg := synth.DefaultTaxiConfig()
	cfg.Vehicles = 12
	cfg.TripsEach = 5
	g, err := synth.TaxiFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mobipriv.MustFromSpec("pipeline").Apply(context.Background(), g.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := poiattack.Evaluate(g.Dataset, g.Stays, poiattack.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	anon, err := poiattack.Evaluate(res.Dataset, g.Stays, poiattack.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if raw.Global.F1 < 0.9 {
		t.Fatalf("attack broken on raw data: F1 = %v", raw.Global.F1)
	}
	if anon.Global.F1 > 0.1 {
		t.Errorf("POIs not hidden on fleet data: F1 = %v", anon.Global.F1)
	}
	rep, err := metrics.EvalDataset(g.Dataset, res.Dataset, metrics.EvalOptions{CellSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Coverage.F1 < 0.9 {
		t.Errorf("coverage destroyed: F1 = %v", rep.Coverage.F1)
	}
}

// TestPipelineConcurrentUse verifies the documented Mechanism contract
// that one resolved pipeline may serve multiple goroutines.
func TestPipelineConcurrentUse(t *testing.T) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 6
	cfg.Sampling = 3 * time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := mobipriv.FromSpec("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*mobipriv.Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = mech.Apply(context.Background(), g.Dataset)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
	}
	// Determinism under concurrency: all results identical.
	for i := 1; i < workers; i++ {
		if results[i].Dataset.TotalPoints() != results[0].Dataset.TotalPoints() ||
			results[i].Zones() != results[0].Zones() ||
			results[i].Swaps() != results[0].Swaps() {
			t.Fatalf("worker %d diverged from worker 0", i)
		}
	}
}
