// Package mmc implements the Mobility Markov Chain re-identification
// attack of Gambs, Killijian & del Prado Cortez — "Show Me How You Move
// and I Will Tell You Who You Are" (reference [1] of the paper).
//
// A user's mobility is summarized as a first-order Markov chain whose
// states are her POIs and whose transitions are the observed movements
// between consecutive stays. Two chains built from different observation
// periods of the same user are highly similar, so an attacker who owns a
// labelled training chain per target can re-identify anonymized test
// trajectories by nearest-chain matching.
//
// The chain distance follows the paper's stationary variant: POI states
// are matched geographically (greedy, within a radius), and the distance
// combines (a) how many of the training chain's important states are
// missing and (b) the geographic distance between matched states,
// weighted by their stationary probabilities.
package mmc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mobipriv/internal/geo"
	"mobipriv/internal/poi"
	"mobipriv/internal/trace"
)

// Chain is a mobility Markov chain: POI states with stationary weights
// and transition probabilities.
type Chain struct {
	// States are the POI locations, ordered by decreasing weight.
	States []geo.Point
	// Weight[i] is the stationary probability of state i (time share of
	// the total stay time).
	Weight []float64
	// Trans[i][j] is the probability of moving from state i to state j,
	// estimated from consecutive-stay counts with add-one smoothing.
	Trans [][]float64
	// Visits counts the stays behind the chain.
	Visits int
}

// Config parameterizes chain construction.
type Config struct {
	// POI configures the stay extraction.
	POI poi.Config
	// MaxStates caps the chain size to the top-k POIs by time share
	// (Gambs et al. use the few most important POIs). Zero means 5.
	MaxStates int
}

// DefaultConfig returns the attack's standard settings.
func DefaultConfig() Config {
	return Config{POI: poi.DefaultConfig(), MaxStates: 5}
}

func (c Config) maxStates() int {
	if c.MaxStates > 0 {
		return c.MaxStates
	}
	return 5
}

// ErrNoStates reports a trace with no extractable POI states.
var ErrNoStates = errors.New("mmc: no POI states in trace")

// Build constructs the mobility Markov chain of one trace.
func Build(tr *trace.Trace, cfg Config) (*Chain, error) {
	stays, err := poi.Stays(tr, cfg.POI)
	if err != nil {
		return nil, fmt.Errorf("mmc: %w", err)
	}
	if len(stays) == 0 {
		return nil, ErrNoStates
	}
	mergeRadius := cfg.POI.MergeRadius
	if mergeRadius <= 0 {
		mergeRadius = cfg.POI.MaxDiameter
	}
	pois := poi.Cluster(stays, mergeRadius)
	if len(pois) == 0 {
		return nil, ErrNoStates
	}
	if len(pois) > cfg.maxStates() {
		pois = pois[:cfg.maxStates()] // Cluster orders by decreasing time
	}
	ch := &Chain{
		States: make([]geo.Point, len(pois)),
		Weight: make([]float64, len(pois)),
		Visits: len(stays),
	}
	var total float64
	for i, p := range pois {
		ch.States[i] = p.Center
		ch.Weight[i] = p.TotalTime.Seconds()
		total += ch.Weight[i]
	}
	if total > 0 {
		for i := range ch.Weight {
			ch.Weight[i] /= total
		}
	}
	// Transition counts between consecutive stays (mapped to states).
	counts := make([][]float64, len(pois))
	for i := range counts {
		counts[i] = make([]float64, len(pois))
	}
	stateOf := func(p geo.Point) int {
		best, bestD := -1, math.Inf(1)
		for i, s := range ch.States {
			if d := geo.FastDistance(p, s); d < bestD {
				best, bestD = i, d
			}
		}
		// Stays beyond any kept state (clipped by MaxStates) are ignored.
		if bestD > 2*cfg.POI.MaxDiameter {
			return -1
		}
		return best
	}
	prev := -1
	for _, s := range stays {
		cur := stateOf(s.Center)
		if cur < 0 {
			prev = -1
			continue
		}
		if prev >= 0 && prev != cur {
			counts[prev][cur]++
		}
		prev = cur
	}
	// Row-normalize with add-one smoothing so chains from short traces
	// remain comparable.
	ch.Trans = make([][]float64, len(pois))
	for i := range counts {
		row := make([]float64, len(pois))
		var sum float64
		for j := range counts[i] {
			row[j] = counts[i][j] + 1.0/float64(len(pois))
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		ch.Trans[i] = row
	}
	return ch, nil
}

// Distance returns the dissimilarity of two chains in meters-equivalent
// units: the stationary-weighted geographic distance between greedily
// matched states, with unmatched weight charged at the penalty distance.
func Distance(a, b *Chain, matchRadius float64) float64 {
	if matchRadius <= 0 {
		matchRadius = 500
	}
	usedA := make([]bool, len(a.States))
	usedB := make([]bool, len(b.States))
	var dist float64
	for _, m := range geo.GreedyMatch(a.States, b.States, matchRadius) {
		usedA[m.A] = true
		usedB[m.B] = true
		w := (a.Weight[m.A] + b.Weight[m.B]) / 2
		dist += w * m.D
	}
	// Unmatched stationary mass is charged the full penalty.
	for i, w := range a.Weight {
		if !usedA[i] {
			dist += w * matchRadius
		}
	}
	for j, w := range b.Weight {
		if !usedB[j] {
			dist += w * matchRadius
		}
	}
	return dist
}

// BuildAll constructs chains for every trace of a dataset, skipping
// traces with no states (returned in the skipped list).
func BuildAll(d *trace.Dataset, cfg Config) (chains map[string]*Chain, skipped []string, err error) {
	chains = make(map[string]*Chain, d.Len())
	for _, tr := range d.Traces() {
		ch, err := Build(tr, cfg)
		if err != nil {
			if errors.Is(err, ErrNoStates) {
				skipped = append(skipped, tr.User)
				continue
			}
			return nil, nil, err
		}
		chains[tr.User] = ch
	}
	return chains, skipped, nil
}

// LinkResult reports the re-identification outcome.
type LinkResult struct {
	Total     int     // published identities attacked
	Correct   int     // correctly re-identified
	Rate      float64 // Correct / Total
	Unmatched int     // published identities with no extractable chain
}

// Reidentify matches each published trace's chain against the training
// chains (the attacker's background knowledge, typically built from an
// earlier raw release) and scores against the truth mapping.
func Reidentify(
	published *trace.Dataset,
	training map[string]*Chain,
	truth func(publishedUser string) string,
	cfg Config,
	matchRadius float64,
) (LinkResult, error) {
	if truth == nil {
		return LinkResult{}, errors.New("mmc: nil truth function")
	}
	testChains, skipped, err := BuildAll(published, cfg)
	if err != nil {
		return LinkResult{}, err
	}
	targets := make([]string, 0, len(training))
	for u := range training {
		targets = append(targets, u)
	}
	sort.Strings(targets)

	var res LinkResult
	res.Total = published.Len()
	res.Unmatched = len(skipped)
	for _, pub := range published.Users() {
		tc, ok := testChains[pub]
		if !ok {
			continue
		}
		best, bestD := "", math.Inf(1)
		for _, t := range targets {
			if d := Distance(training[t], tc, matchRadius); d < bestD {
				best, bestD = t, d
			}
		}
		if best != "" && truth(pub) == best {
			res.Correct++
		}
	}
	if res.Total > 0 {
		res.Rate = float64(res.Correct) / float64(res.Total)
	}
	return res, nil
}
