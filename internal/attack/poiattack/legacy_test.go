package poiattack

// This file preserves, verbatim, the whole-dataset Evaluate that shipped
// before the streaming rework (poi.ExtractAll over a loaded dataset).
// It exists only as the reference side of TestEvaluateMatchesLegacy:
// the streaming facade must keep producing byte-for-byte identical
// scores. Do not "fix" or modernize it.

import (
	"fmt"
	"sort"

	"mobipriv/internal/geo"
	"mobipriv/internal/poi"
	"mobipriv/internal/risk"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

func legacyNewScore(truth, extracted, matched int) risk.Score {
	s := risk.Score{Truth: truth, Extracted: extracted, Matched: matched}
	if extracted > 0 {
		s.Precision = float64(matched) / float64(extracted)
	}
	if truth > 0 {
		s.Recall = float64(matched) / float64(truth)
	}
	if s.Precision+s.Recall > 0 {
		s.F1 = 2 * s.Precision * s.Recall / (s.Precision + s.Recall)
	}
	return s
}

func legacyTruePOIs(stays []synth.Stay, mergeRadius float64) map[string][]geo.Point {
	byUser := make(map[string][]poi.Stay)
	for _, s := range stays {
		byUser[s.User] = append(byUser[s.User], poi.Stay{
			Center: s.Center, Enter: s.Enter, Leave: s.Leave,
		})
	}
	out := make(map[string][]geo.Point, len(byUser))
	for u, ss := range byUser {
		for _, p := range poi.Cluster(ss, mergeRadius) {
			out[u] = append(out[u], p.Center)
		}
	}
	return out
}

func legacyEvaluate(published *trace.Dataset, stays []synth.Stay, cfg Config) (Result, error) {
	if cfg.MatchRadius <= 0 {
		return Result{}, fmt.Errorf("poiattack: MatchRadius %v must be positive", cfg.MatchRadius)
	}
	extracted, err := poi.ExtractAll(published, cfg.POI)
	if err != nil {
		return Result{}, fmt.Errorf("poiattack: %w", err)
	}
	truth := legacyTruePOIs(stays, cfg.MatchRadius)

	var res Result
	// Per-user scoring.
	var tTruth, tExtr, tMatch int
	for u, truePts := range truth {
		var extrPts []geo.Point
		for _, p := range extracted[u] {
			extrPts = append(extrPts, p.Center)
		}
		m := legacyMatchCount(truePts, extrPts, cfg.MatchRadius)
		tTruth += len(truePts)
		tExtr += len(extrPts)
		tMatch += m
	}
	// Extracted POIs of identities with no ground truth still count as
	// false positives in the per-user view.
	for u, ps := range extracted {
		if _, known := truth[u]; !known {
			tExtr += len(ps)
		}
	}
	res.PerUser = legacyNewScore(tTruth, tExtr, tMatch)

	// Global scoring: locations only.
	var allTruth, allExtr []geo.Point
	for _, pts := range truth {
		allTruth = append(allTruth, pts...)
	}
	for _, ps := range extracted {
		for _, p := range ps {
			allExtr = append(allExtr, p.Center)
		}
	}
	res.Global = legacyNewScore(len(allTruth), len(allExtr), legacyMatchCount(allTruth, allExtr, cfg.MatchRadius))
	return res, nil
}

func legacyMatchCount(truth, extracted []geo.Point, radius float64) int {
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
