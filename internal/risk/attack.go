package risk

import (
	"fmt"
	"sort"

	"mobipriv/internal/geo"
	"mobipriv/internal/poi"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

// Score is a precision/recall/F1 triple with raw counts.
type Score struct {
	Precision float64
	Recall    float64
	F1        float64
	Truth     int // number of ground-truth POIs
	Extracted int // number of POIs the attack produced
	Matched   int
}

func newScore(truth, extracted, matched int) Score {
	s := Score{Truth: truth, Extracted: extracted, Matched: matched}
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

// String implements fmt.Stringer.
func (s Score) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (truth=%d extracted=%d matched=%d)",
		s.Precision, s.Recall, s.F1, s.Truth, s.Extracted, s.Matched)
}

// Result bundles the two scorings of one attack run.
//
//   - PerUser: extracted POIs of published identity u are matched against
//     the true POIs of original user u. Meaningful for mechanisms that
//     keep identities aligned (raw, speed smoothing, Geo-I, Wait4Me).
//   - Global: all extracted POI locations (any identity) are matched
//     against all true POI locations. Measures place disclosure
//     regardless of identity, and stays meaningful after swapping.
type Result struct {
	PerUser Score
	Global  Score
}

// AttackConfig parameterizes the POI-retrieval attack.
type AttackConfig struct {
	// POI is the extraction configuration the adversary uses.
	POI poi.Config
	// MatchRadius is the distance in meters within which an extracted
	// POI counts as having retrieved a true POI.
	MatchRadius float64
}

// DefaultAttackConfig returns the attack settings used across the
// experiments.
func DefaultAttackConfig() AttackConfig {
	return AttackConfig{POI: poi.DefaultConfig(), MatchRadius: 250}
}

func (c AttackConfig) validate() error {
	if err := c.POI.Validate(); err != nil {
		return err
	}
	if c.MatchRadius <= 0 {
		return fmt.Errorf("MatchRadius %v must be positive", c.MatchRadius)
	}
	return nil
}

// TruthPOIs clusters the generator's ground-truth stays into per-user
// POI location lists (stays at the same place merge, mirroring what the
// extraction pipeline produces on raw data).
func TruthPOIs(stays []synth.Stay, mergeRadius float64) map[string][]geo.Point {
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

// AttackAcc scores the POI-retrieval attack one published trace at a
// time, with no dataset in memory: each trace runs through an exact
// streaming stay detector, the stays cluster into that user's POIs, and
// only the POI centers (a handful per user) are retained for scoring.
//
// AttackAcc obeys the internal/metrics accumulator contract: feed every
// trace to one accumulator, or shard the traces across several and
// Merge them in any order — Result is identical. The zero value is not
// usable; construct with NewAttackAcc.
type AttackAcc struct {
	cfg       AttackConfig
	truth     map[string][]geo.Point
	extracted map[string][]geo.Point
}

// NewAttackAcc returns an accumulator scoring extractions against the
// given ground-truth POI locations (see TruthPOIs). The truth map is
// shared, not copied; callers must not mutate it while the accumulator
// is live.
func NewAttackAcc(truth map[string][]geo.Point, cfg AttackConfig) (*AttackAcc, error) {
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("risk: attack: %w", err)
	}
	return &AttackAcc{
		cfg:       cfg,
		truth:     truth,
		extracted: make(map[string][]geo.Point),
	}, nil
}

// AddTrace extracts the POIs of one published trace and records their
// centers under the trace's user. Each user's whole trace must go to a
// single accumulator (traces are the unit of sharding, as in
// store.ScanTraces).
func (a *AttackAcc) AddTrace(tr *trace.Trace) {
	if tr == nil || tr.Len() == 0 {
		return
	}
	acc, err := NewExactAccumulator(a.cfg.POI)
	if err != nil {
		// cfg was validated at construction; unreachable.
		panic(err)
	}
	stays := acc.TraceStays(tr)
	pois := poi.Cluster(stays, a.cfg.POI.EffectiveMergeRadius())
	if len(pois) == 0 {
		return
	}
	centers := make([]geo.Point, len(pois))
	for i, p := range pois {
		centers[i] = p.Center
	}
	a.extracted[tr.User] = append(a.extracted[tr.User], centers...)
}

// Merge folds the extractions of b into a. b must not be used after.
func (a *AttackAcc) Merge(b *AttackAcc) {
	if b == nil {
		return
	}
	for u, pts := range b.extracted {
		a.extracted[u] = append(a.extracted[u], pts...)
	}
}

// Result scores the accumulated extractions against the ground truth.
// The pooled point lists are assembled in sorted-user order and each
// user's centers are sorted by position, so the result is deterministic
// and invariant under merge order.
func (a *AttackAcc) Result() Result {
	extracted := make(map[string][]geo.Point, len(a.extracted))
	for u, pts := range a.extracted {
		cp := append([]geo.Point(nil), pts...)
		sortPoints(cp)
		extracted[u] = cp
	}

	var res Result
	// Per-user scoring.
	var tTruth, tExtr, tMatch int
	for _, u := range sortedKeys(a.truth) {
		truePts := a.truth[u]
		m := matchCount(truePts, extracted[u], a.cfg.MatchRadius)
		tTruth += len(truePts)
		tExtr += len(extracted[u])
		tMatch += m
	}
	// Extracted POIs of identities with no ground truth still count as
	// false positives in the per-user view.
	for u, ps := range extracted {
		if _, known := a.truth[u]; !known {
			tExtr += len(ps)
		}
	}
	res.PerUser = newScore(tTruth, tExtr, tMatch)

	// Global scoring: locations only.
	var allTruth, allExtr []geo.Point
	for _, u := range sortedKeys(a.truth) {
		allTruth = append(allTruth, a.truth[u]...)
	}
	for _, u := range sortedKeys(extracted) {
		allExtr = append(allExtr, extracted[u]...)
	}
	res.Global = newScore(len(allTruth), len(allExtr), matchCount(allTruth, allExtr, a.cfg.MatchRadius))
	return res
}

// matchCount greedily matches extracted points to truth points within
// radius, each point used at most once, closest pairs first (see
// geo.GreedyMatch). Greedy matching on sorted distances is optimal for
// counting matches in this bipartite threshold setting in all but
// adversarial geometries, and is deterministic.
func matchCount(truth, extracted []geo.Point, radius float64) int {
	return len(geo.GreedyMatch(truth, extracted, radius))
}

func sortedKeys(m map[string][]geo.Point) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortPoints(pts []geo.Point) {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Lat != pts[j].Lat {
			return pts[i].Lat < pts[j].Lat
		}
		return pts[i].Lng < pts[j].Lng
	})
}
