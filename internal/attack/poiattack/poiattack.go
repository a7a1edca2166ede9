// Package poiattack implements the POI-retrieval attack used to measure
// how well an anonymization mechanism hides points of interest: the
// adversary runs the extraction pipeline of Gambs et al. [1] on the
// published dataset and the attack's success is scored against the
// generator's ground-truth stays by precision / recall / F1.
//
// Since the streaming rework the package is a thin batch facade over
// internal/risk: Evaluate feeds each published trace to a
// risk.AttackAcc (no whole-dataset state, stays detected incrementally)
// and returns its Result. Scores are pinned identical to the historical
// in-memory implementation by TestEvaluateMatchesLegacy. Store-native
// callers — mobieval -stays — skip this facade and drive the
// accumulator straight from store.ScanTracesPaired via
// metrics.EvalOptions.Attack.
//
// Two scorings are reported:
//
//   - PerUser: extracted POIs of published identity u are matched against
//     the true POIs of original user u. Meaningful for mechanisms that
//     keep identities aligned (raw, speed smoothing, Geo-I, Wait4Me).
//   - Global: all extracted POI locations (any identity) are matched
//     against all true POI locations. Measures place disclosure
//     regardless of identity, and stays meaningful after swapping.
package poiattack

import (
	"fmt"

	"mobipriv/internal/geo"
	"mobipriv/internal/risk"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

// Result bundles the two scorings of one attack run.
type Result = risk.Result

// Config parameterizes the attack.
type Config = risk.AttackConfig

// DefaultConfig returns the attack settings used across the experiments.
func DefaultConfig() Config { return risk.DefaultAttackConfig() }

// TruePOIs clusters the generator's ground-truth stays into per-user POI
// location lists (stays at the same place merge, mirroring what the
// extraction pipeline produces on raw data).
func TruePOIs(stays []synth.Stay, mergeRadius float64) map[string][]geo.Point {
	return risk.TruthPOIs(stays, mergeRadius)
}

// Evaluate runs the attack on the published dataset and scores it
// against the ground truth.
func Evaluate(published *trace.Dataset, stays []synth.Stay, cfg Config) (Result, error) {
	acc, err := risk.NewAttackAcc(TruePOIs(stays, cfg.MatchRadius), cfg)
	if err != nil {
		return Result{}, fmt.Errorf("poiattack: %w", err)
	}
	if published != nil {
		for _, tr := range published.Traces() {
			acc.AddTrace(tr)
		}
	}
	return acc.Result(), nil
}
