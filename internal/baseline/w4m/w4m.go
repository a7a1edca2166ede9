// Package w4m reimplements the Wait4Me baseline of Abul, Bonchi & Nanni,
// "Anonymization of moving objects databases by clustering and
// perturbation" (Information Systems 2010) — the (k,δ)-anonymity
// mechanism the paper compares against (reference [3]).
//
// Guarantee: every published trajectory belongs to a cluster of at least
// k trajectories that are pairwise within δ meters of each other at
// every published instant, so at every moment a user is indistinguishable
// from at least k−1 others.
//
// The implementation follows the published algorithm's structure with
// these simplifications:
//
//  1. Synchronization: each trajectory is resampled on a common time
//     grid (Grid step).
//  2. Greedy clustering: repeatedly pick the unassigned pivot and its
//     k−1 nearest trajectories under the synchronized Euclidean distance
//     over their overlapping time span; trajectories with insufficient
//     overlap or distance beyond MaxRadius are outliers.
//  3. Space translation (the "perturbation"): cluster members are
//     trimmed to the cluster's common time span and every position is
//     pulled toward the cluster centroid so that all members fit in a
//     δ-diameter tube.
//  4. Suppression: trajectories in no cluster are removed entirely —
//     exactly Wait4Me's outlier removal.
package w4m

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/trace"
)

// Config parameterizes the mechanism.
type Config struct {
	// K is the anonymity set size: every published trajectory moves with
	// at least K-1 others.
	K int
	// Delta is the anonymity tube diameter in meters.
	Delta float64
	// Grid is the synchronization step; trajectories are compared and
	// published at multiples of Grid. Zero means 1 minute.
	Grid time.Duration
	// MaxRadius bounds the synchronized distance at which trajectories
	// may still be clustered together; beyond it they are considered
	// outliers rather than distorted into uselessness. Zero means
	// 25×Delta (generous, like Wait4Me's default trash threshold).
	MaxRadius float64
}

// DefaultConfig returns the operating point used across the experiments.
func DefaultConfig() Config { return Config{K: 4, Delta: 200} }

func (c Config) grid() time.Duration {
	if c.Grid > 0 {
		return c.Grid
	}
	return time.Minute
}

func (c Config) maxRadius() float64 {
	if c.MaxRadius > 0 {
		return c.MaxRadius
	}
	return 25 * c.Delta
}

func (c Config) validate() error {
	switch {
	case c.K < 2:
		return errors.New("w4m: K must be at least 2")
	case c.Delta <= 0:
		return errors.New("w4m: Delta must be positive")
	case c.Grid < 0:
		return errors.New("w4m: Grid must be non-negative")
	case c.MaxRadius < 0:
		return errors.New("w4m: MaxRadius must be non-negative")
	}
	return nil
}

// Result is the outcome of anonymizing a dataset.
type Result struct {
	// Dataset holds the published (k,δ)-anonymous trajectories.
	Dataset *trace.Dataset
	// Suppressed lists users removed as outliers (no cluster of K
	// sufficiently close trajectories).
	Suppressed []string
	// Clusters records the user groups that were published together.
	Clusters [][]string
}

// synced is a trajectory resampled on the common grid.
type synced struct {
	user  string
	start int // first grid index covered
	pos   []geo.XY
}

func (s *synced) at(gi int) (geo.XY, bool) {
	i := gi - s.start
	if i < 0 || i >= len(s.pos) {
		return geo.XY{}, false
	}
	return s.pos[i], true
}

// Anonymize applies the mechanism to the dataset.
func Anonymize(d *trace.Dataset, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("w4m: %w", err)
	}
	res := &Result{}
	if d.Len() == 0 {
		res.Dataset, _ = trace.NewDataset(nil)
		return res, nil
	}
	epoch, _, _ := d.TimeSpan()
	grid := cfg.grid()
	proj := geo.NewProjector(d.Bounds().Center())

	// 1. Synchronize.
	ss := make([]*synced, 0, d.Len())
	for _, tr := range d.Traces() {
		if s := synchronize(tr, epoch, grid, proj); s != nil {
			ss = append(ss, s)
		} else {
			res.Suppressed = append(res.Suppressed, tr.User)
		}
	}

	// 2. Greedy clustering.
	clusters, outliers := cluster(ss, cfg)
	for _, o := range outliers {
		res.Suppressed = append(res.Suppressed, o.user)
	}
	sort.Strings(res.Suppressed)

	// 3. Space translation + output assembly.
	var outTraces []*trace.Trace
	for _, cl := range clusters {
		users := make([]string, len(cl))
		for i, s := range cl {
			users[i] = s.user
		}
		sort.Strings(users)
		res.Clusters = append(res.Clusters, users)
		trs, err := translate(cl, cfg.Delta, epoch, grid, proj)
		if err != nil {
			return nil, err
		}
		outTraces = append(outTraces, trs...)
	}
	ds, err := trace.NewDataset(outTraces)
	if err != nil {
		return nil, fmt.Errorf("w4m: assemble dataset: %w", err)
	}
	res.Dataset = ds
	return res, nil
}

// synchronize resamples tr at grid multiples (relative to epoch) within
// its own span, interpolating between observations. Returns nil when the
// trace covers fewer than two grid instants.
func synchronize(tr *trace.Trace, epoch time.Time, grid time.Duration, proj *geo.Projector) *synced {
	first := int(math.Ceil(float64(tr.Start().Time.Sub(epoch)) / float64(grid)))
	last := int(math.Floor(float64(tr.End().Time.Sub(epoch)) / float64(grid)))
	if last-first+1 < 2 {
		return nil
	}
	s := &synced{user: tr.User, start: first, pos: make([]geo.XY, 0, last-first+1)}
	for gi := first; gi <= last; gi++ {
		p, ok := tr.At(epoch.Add(time.Duration(gi) * grid))
		if !ok {
			// Cannot happen: gi lies within the span; guard anyway.
			return nil
		}
		s.pos = append(s.pos, proj.ToXY(p))
	}
	return s
}

// minOverlap is the minimal number of common grid instants for two
// trajectories to be comparable.
const minOverlap = 2

// syncDist returns the mean Euclidean distance between two synchronized
// trajectories over their common grid instants, or +Inf when they share
// fewer than minOverlap instants.
func syncDist(a, b *synced) float64 {
	lo := maxInt(a.start, b.start)
	hi := minInt(a.start+len(a.pos), b.start+len(b.pos)) // exclusive
	n := hi - lo
	if n < minOverlap {
		return math.Inf(1)
	}
	var sum float64
	for gi := lo; gi < hi; gi++ {
		pa, _ := a.at(gi)
		pb, _ := b.at(gi)
		sum += pa.Dist(pb)
	}
	return sum / float64(n)
}

// cluster greedily forms groups of K trajectories. Pivot selection is
// deterministic (first unassigned in user order). A pivot whose K-1
// nearest comparable trajectories are not all within MaxRadius becomes
// an outlier.
func cluster(ss []*synced, cfg Config) (clusters [][]*synced, outliers []*synced) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].user < ss[j].user })
	unassigned := append([]*synced(nil), ss...)
	for len(unassigned) >= cfg.K {
		pivot := unassigned[0]
		rest := unassigned[1:]
		type cand struct {
			s *synced
			d float64
		}
		cands := make([]cand, 0, len(rest))
		for _, s := range rest {
			cands = append(cands, cand{s: s, d: syncDist(pivot, s)})
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
		if len(cands) < cfg.K-1 || cands[cfg.K-2].d > cfg.maxRadius() {
			outliers = append(outliers, pivot)
			unassigned = rest
			continue
		}
		group := []*synced{pivot}
		taken := make(map[*synced]bool, cfg.K)
		taken[pivot] = true
		for i := 0; i < cfg.K-1; i++ {
			group = append(group, cands[i].s)
			taken[cands[i].s] = true
		}
		clusters = append(clusters, group)
		next := unassigned[:0]
		for _, s := range unassigned {
			if !taken[s] {
				next = append(next, s)
			}
		}
		unassigned = next
	}
	outliers = append(outliers, unassigned...)
	return clusters, outliers
}

// translate trims cluster members to their common span and pulls each
// position into the δ-tube around the centroid trajectory.
func translate(cl []*synced, delta float64, epoch time.Time, grid time.Duration, proj *geo.Projector) ([]*trace.Trace, error) {
	lo := cl[0].start
	hi := cl[0].start + len(cl[0].pos)
	for _, s := range cl[1:] {
		lo = maxInt(lo, s.start)
		hi = minInt(hi, s.start+len(s.pos))
	}
	if hi-lo < minOverlap {
		// Cluster members were chosen by pairwise overlap with the pivot;
		// their common intersection can still collapse. Publish nothing
		// rather than fabricate (mirrors Wait4Me's suppression).
		return nil, nil
	}
	out := make([]*trace.Trace, 0, len(cl))
	for _, s := range cl {
		pts := make([]trace.Point, 0, hi-lo)
		for gi := lo; gi < hi; gi++ {
			p, _ := s.at(gi)
			c := centroidAt(cl, gi)
			// Pull into the tube: cap the distance to the centroid at
			// δ/2, which makes all members pairwise within δ.
			v := p.Sub(c)
			if r := v.Norm(); r > delta/2 {
				p = c.Add(v.Scale(delta / 2 / r))
			}
			pts = append(pts, trace.Point{
				Point: proj.ToPoint(p),
				Time:  epoch.Add(time.Duration(gi) * grid),
			})
		}
		tr, err := trace.New(s.user, pts)
		if err != nil {
			return nil, fmt.Errorf("w4m: publish %q: %w", s.user, err)
		}
		out = append(out, tr)
	}
	return out, nil
}

func centroidAt(cl []*synced, gi int) geo.XY {
	var sum geo.XY
	for _, s := range cl {
		p, _ := s.at(gi)
		sum = sum.Add(p)
	}
	return sum.Scale(1 / float64(len(cl)))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
