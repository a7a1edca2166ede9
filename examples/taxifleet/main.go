// Taxi fleet example: the Cabspotting-like scenario from the paper's
// motivation. A fleet operator wants to publish vehicle traces for
// traffic research without revealing where drivers wait (taxi stands,
// depots). The example generates a synthetic fleet, anonymizes it, and
// evaluates both privacy (POI-retrieval attack) and utility (coverage,
// trip lengths, range queries).
//
// Run with: go run ./examples/taxifleet
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"mobipriv"
	"mobipriv/internal/attack/poiattack"
	"mobipriv/internal/metrics"
	"mobipriv/internal/stats"
	"mobipriv/internal/synth"
)

func main() {
	log.SetFlags(0)

	cfg := synth.DefaultTaxiConfig()
	cfg.Vehicles = 20
	cfg.TripsEach = 6
	g, err := synth.TaxiFleet(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %v, %d ground-truth stand waits\n", g.Dataset, len(g.Stays))

	// Resolve the paper's pipeline from the mechanism registry and fan
	// the per-trace work across all CPUs; the published dataset is
	// byte-identical to a serial run.
	mech, err := mobipriv.FromSpec("pipeline")
	if err != nil {
		log.Fatal(err)
	}
	runner := mobipriv.NewRunner(mobipriv.WithWorkers(runtime.NumCPU()))
	res, err := runner.Run(context.Background(), mech, g.Dataset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published: %v (%d zones, %d swaps, %d points suppressed)\n\n",
		res.Dataset, res.Zones(), res.Swaps(), res.SuppressedPoints())

	// Privacy: can the adversary still find the stands?
	before, err := poiattack.Evaluate(g.Dataset, g.Stays, poiattack.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	after, err := poiattack.Evaluate(res.Dataset, g.Stays, poiattack.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("POI-retrieval attack (global location disclosure):")
	fmt.Printf("  raw:       %s\n", before.Global)
	fmt.Printf("  published: %s\n", after.Global)

	// Utility: does the published fleet still describe the city?
	rep, err := metrics.EvalDataset(g.Dataset, res.Dataset, metrics.EvalOptions{CellSize: 500, Queries: 200, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	cov := rep.Coverage
	fmt.Printf("\nutility @500 m cells:\n  coverage F1 %.3f (%d original cells, %d published)\n",
		cov.F1, cov.OrigCells, cov.AnonCells)
	fmt.Printf("  trace length mean: %.1f km -> %.1f km\n", rep.Lengths.OrigMean/1000, rep.Lengths.AnonMean/1000)
	fmt.Printf("  range-query density error: mean %.3f, p95 %.3f\n",
		stats.Mean(rep.QueryErrors), stats.Quantile(rep.QueryErrors, 0.95))

	fmt.Printf("\n(total runtime excludes generation; anonymization handled %d points)\n",
		g.Dataset.TotalPoints())
}
