// Package mixzone implements the second step of the paper's pipeline:
// exploiting natural path crossings ("mix-zones", Beresford & Stajano)
// to swap user identifiers and confuse re-identification attacks.
//
// The mechanism never distorts locations: it (1) detects places where
// two or more users naturally pass close to each other in space and
// time, (2) suppresses the few observations inside each zone, and (3)
// applies a uniform random permutation to the identities of the traces
// crossing the zone — a user entering as "A" may leave as "B".
//
// Zones are detected, never fabricated: the paper explicitly avoids
// distorting trajectories to force meetings. Consequently the amount of
// confusion available depends on how often users actually meet (see
// experiment E9).
package mixzone

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/index"
	"mobipriv/internal/trace"
)

// Config parameterizes zone detection and swapping.
type Config struct {
	// Radius is the mix-zone radius in meters: two users within Radius
	// of each other form a zone, and observations within Radius of the
	// zone center are suppressed. Small zones cost little utility.
	Radius float64
	// Window is the co-location tolerance: observations of two users
	// count as a meeting when they are within Radius and their
	// timestamps differ by at most Window.
	Window time.Duration
	// Cooldown is the minimum time between two distinct zone events for
	// the same pair of users, preventing one long co-location (e.g.
	// colleagues at the office) from generating unbounded events.
	Cooldown time.Duration
	// SuppressWindow is the half-width of the time interval around the
	// meeting instant during which participants' in-zone observations
	// are suppressed. Zero means 2×Window.
	SuppressWindow time.Duration
	// SwapSeed seeds the permutation generator; runs are reproducible.
	SwapSeed int64
	// NoSwap disables identity swapping while keeping zone detection and
	// suppression (the E12 ablation).
	NoSwap bool
	// NoSuppress disables point suppression while keeping swapping (the
	// E12 ablation: the seam inside each zone stays visible).
	NoSuppress bool
}

// DefaultConfig returns the operating point used across the experiments.
func DefaultConfig() Config {
	return Config{
		Radius:   100,
		Window:   time.Minute,
		Cooldown: 15 * time.Minute,
		SwapSeed: 1,
	}
}

func (c Config) suppressWindow() time.Duration {
	if c.SuppressWindow > 0 {
		return c.SuppressWindow
	}
	return 2 * c.Window
}

func (c Config) validate() error {
	switch {
	case c.Radius <= 0:
		return errors.New("mixzone: Radius must be positive")
	case c.Window <= 0:
		return errors.New("mixzone: Window must be positive")
	case c.Cooldown < 0:
		return errors.New("mixzone: Cooldown must be non-negative")
	case c.SuppressWindow < 0:
		return errors.New("mixzone: SuppressWindow must be non-negative")
	}
	return nil
}

// Zone is one detected meeting: the participants were pairwise within
// Radius of the center around the meeting instant.
type Zone struct {
	Center       geo.Point
	Radius       float64
	Time         time.Time
	Participants []string // original user identifiers, sorted
}

// SwapRecord is the ground truth of one zone's identity permutation:
// Mapping[in] = out means the output identity that carried original
// user in's trace before the zone carries original user Mapping[in]'s
// trace after it... more precisely, identities are re-assigned so that
// the trace of original user u is published under Assignment[u] after
// the zone (see Result.Segments for the flattened view).
type SwapRecord struct {
	Zone Zone
	// Assignment maps each participant (original user) to the output
	// identity its observations carry after this zone.
	Assignment map[string]string
	// Swapped is false when the drawn permutation was the identity.
	Swapped bool
}

// Segment records which original user's observations an output identity
// carries during [From, To] — the evaluation ground truth for the
// re-identification experiments.
type Segment struct {
	Output   string
	Original string
	From     time.Time
	To       time.Time
}

// Result is the outcome of applying the mix-zone step to a dataset.
type Result struct {
	// Dataset is the published dataset: identities swapped at zones,
	// in-zone observations suppressed.
	Dataset *trace.Dataset
	// Zones lists every detected zone in chronological order.
	Zones []Zone
	// Swaps records the permutation applied at each zone (parallel to
	// Zones).
	Swaps []SwapRecord
	// Segments is the output-identity ↔ original-user ground truth.
	Segments []Segment
	// Suppressed counts the observations removed inside zones.
	Suppressed int
	// DroppedUsers lists output identities that ended up with no
	// observations (possible only for tiny traces fully inside a zone).
	DroppedUsers []string
}

// Apply runs zone detection, suppression and identity swapping on the
// dataset and returns the published dataset plus the evaluation ground
// truth. The input dataset is not modified.
func Apply(d *trace.Dataset, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("mixzone: %w", err)
	}
	zones := DetectZones(d, cfg)
	return applyZones(d, zones, cfg)
}

// DetectZones finds natural meetings in the dataset: instants where two
// or more users are within cfg.Radius of each other and within
// cfg.Window in time. Per pair of users, events closer than
// cfg.Cooldown are coalesced into the first one. Pairwise meetings
// that coincide in space and time merge into multi-user zones. Zones are
// returned in chronological order.
func DetectZones(d *trace.Dataset, cfg Config) []Zone {
	traces := d.Traces()
	if len(traces) < 2 {
		return nil
	}
	from, _, ok := d.TimeSpan()
	if !ok {
		return nil
	}
	// Index every observation.
	type ref struct{ ti, pi int }
	var refs []ref
	grid := index.NewSTGrid(d.Bounds().Center(), cfg.Radius, cfg.Window, from)
	for ti, tr := range traces {
		for pi, p := range tr.Points {
			grid.Insert(p.Point, p.Time, len(refs))
			refs = append(refs, ref{ti, pi})
		}
	}
	// Candidate pairwise meetings, chronological.
	type meeting struct {
		t      time.Time
		center geo.Point
		a, b   int // trace indexes, a < b
	}
	var meetings []meeting
	for _, r := range refs {
		p := traces[r.ti].Points[r.pi]
		for _, nid := range grid.WithinST(p.Point, p.Time, cfg.Radius, cfg.Window) {
			nr := refs[nid]
			if nr.ti <= r.ti { // each unordered trace pair once, skip self
				continue
			}
			// The ST query only generates candidates: observation
			// timestamps of different users are offset, so a neighbor
			// within Window may correspond to a user who passed the same
			// spot up to Window later without ever meeting. Require true
			// simultaneity by interpolating the other trace at p's
			// instant.
			qpos, ok := traces[nr.ti].At(p.Time)
			if !ok || geo.FastDistance(p.Point, qpos) > cfg.Radius {
				continue
			}
			meetings = append(meetings, meeting{
				t:      p.Time,
				center: geo.Midpoint(p.Point, qpos),
				a:      r.ti,
				b:      nr.ti,
			})
		}
	}
	sort.SliceStable(meetings, func(i, j int) bool { return meetings[i].t.Before(meetings[j].t) })

	// Cooldown per pair, then merge concurrent nearby meetings into
	// multi-user zones.
	type pairKey struct{ a, b int }
	lastEvent := make(map[pairKey]time.Time)
	type protoZone struct {
		center  geo.Point
		t       time.Time
		members map[int]bool
	}
	var protos []*protoZone
	for _, m := range meetings {
		key := pairKey{m.a, m.b}
		if last, seen := lastEvent[key]; seen && m.t.Sub(last) < cfg.Cooldown {
			continue
		}
		lastEvent[key] = m.t
		merged := false
		// Scan recent protozones backwards; they are time-ordered.
		for i := len(protos) - 1; i >= 0; i-- {
			z := protos[i]
			if m.t.Sub(z.t) > cfg.Window {
				break
			}
			if geo.FastDistance(z.center, m.center) <= cfg.Radius {
				z.members[m.a] = true
				z.members[m.b] = true
				merged = true
				break
			}
		}
		if !merged {
			protos = append(protos, &protoZone{
				center:  m.center,
				t:       m.t,
				members: map[int]bool{m.a: true, m.b: true},
			})
		}
	}
	zones := make([]Zone, 0, len(protos))
	for _, z := range protos {
		users := make([]string, 0, len(z.members))
		for ti := range z.members {
			users = append(users, traces[ti].User)
		}
		sort.Strings(users)
		zones = append(zones, Zone{
			Center:       z.center,
			Radius:       cfg.Radius,
			Time:         z.t,
			Participants: users,
		})
	}
	return zones
}

// applyZones performs suppression and swapping given the detected zones.
func applyZones(d *trace.Dataset, zones []Zone, cfg Config) (*Result, error) {
	res := &Result{Zones: zones}
	rng := rand.New(rand.NewSource(cfg.SwapSeed))

	// Identity assignment: original user -> output identity carrying its
	// observations right now. Starts as the identity mapping.
	assign := make(map[string]string, d.Len())
	for _, u := range d.Users() {
		assign[u] = u
	}
	// Cut lists: per original user, the (time, identity-after) sequence.
	type cut struct {
		t  time.Time
		id string
	}
	cuts := make(map[string][]cut)

	for _, z := range zones {
		rec := SwapRecord{Zone: z, Assignment: make(map[string]string, len(z.Participants))}
		if cfg.NoSwap {
			for _, u := range z.Participants {
				rec.Assignment[u] = assign[u]
			}
		} else {
			// Uniform random permutation of the participants' current
			// identities (may be the identity permutation).
			ids := make([]string, len(z.Participants))
			for i, u := range z.Participants {
				ids[i] = assign[u]
			}
			perm := rng.Perm(len(ids))
			for i, u := range z.Participants {
				newID := ids[perm[i]]
				if newID != assign[u] {
					rec.Swapped = true
				}
				assign[u] = newID
				rec.Assignment[u] = newID
				cuts[u] = append(cuts[u], cut{t: z.Time, id: newID})
			}
		}
		res.Swaps = append(res.Swaps, rec)
	}

	// Suppression marks, per original user.
	suppress := make(map[string]map[int]bool)
	if !cfg.NoSuppress {
		w := cfg.suppressWindow()
		for _, z := range zones {
			for _, u := range z.Participants {
				tr := d.ByUser(u)
				marks := suppress[u]
				if marks == nil {
					marks = make(map[int]bool)
					suppress[u] = marks
				}
				lo := sort.Search(len(tr.Points), func(i int) bool {
					return !tr.Points[i].Time.Before(z.Time.Add(-w))
				})
				for i := lo; i < len(tr.Points) && !tr.Points[i].Time.After(z.Time.Add(w)); i++ {
					if geo.FastDistance(tr.Points[i].Point, z.Center) <= z.Radius {
						marks[i] = true
					}
				}
			}
		}
	}

	// Emit observations under their interval identity.
	outPoints := make(map[string][]trace.Point, d.Len())
	for _, tr := range d.Traces() {
		u := tr.User
		userCuts := cuts[u]
		cur := u // identity before the first cut
		// Identity during (cutsBefore, t]: walk cuts while emitting.
		ci := 0
		segStart := tr.Start().Time
		marks := suppress[u]
		for pi, p := range tr.Points {
			for ci < len(userCuts) && p.Time.After(userCuts[ci].t) {
				// Close the segment ground truth at each cut.
				res.Segments = append(res.Segments, Segment{
					Output: cur, Original: u, From: segStart, To: userCuts[ci].t,
				})
				cur = userCuts[ci].id
				segStart = userCuts[ci].t
				ci++
			}
			if marks[pi] {
				res.Suppressed++
				continue
			}
			outPoints[cur] = append(outPoints[cur], p)
		}
		// Remaining cuts (after the last point) still advance identity for
		// ground-truth completeness.
		for ci < len(userCuts) {
			res.Segments = append(res.Segments, Segment{
				Output: cur, Original: u, From: segStart, To: userCuts[ci].t,
			})
			cur = userCuts[ci].id
			segStart = userCuts[ci].t
			ci++
		}
		res.Segments = append(res.Segments, Segment{
			Output: cur, Original: u, From: segStart, To: tr.End().Time,
		})
	}

	ids := make([]string, 0, len(outPoints))
	for id := range outPoints {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	outTraces := make([]*trace.Trace, 0, len(ids))
	for _, id := range ids {
		pts := outPoints[id]
		if len(pts) == 0 {
			res.DroppedUsers = append(res.DroppedUsers, id)
			continue
		}
		tr, err := trace.New(id, pts)
		if err != nil {
			return nil, fmt.Errorf("mixzone: assemble output %q: %w", id, err)
		}
		outTraces = append(outTraces, tr)
	}
	// Users whose entire trace was suppressed never appear in outPoints.
	for _, u := range d.Users() {
		if _, ok := outPoints[u]; !ok {
			res.DroppedUsers = append(res.DroppedUsers, u)
		}
	}
	ds, err := trace.NewDataset(outTraces)
	if err != nil {
		return nil, fmt.Errorf("mixzone: assemble dataset: %w", err)
	}
	res.Dataset = ds
	return res, nil
}

// SwapCount returns how many zones actually permuted identities.
func (r *Result) SwapCount() int {
	n := 0
	for _, s := range r.Swaps {
		if s.Swapped {
			n++
		}
	}
	return n
}
