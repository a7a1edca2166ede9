package main

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"mobipriv/internal/rng"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// Pinned traffic. A workload's traffic is one base day generated from
// the seed, time-sorted, partitioned over the client's connections by
// the system's placement contract (rng.Shard, so one connection owns
// all of a user's points and per-user order survives), and cut into
// bodyPoints-point NDJSON bodies that are encoded once, during set-up,
// with the very function the system's own sinks use
// (traceio.WriteJSONLRecord).
//
// The base day is replayed as cohorts. Every user name carries a
// fixed-width cohort tag ("c0-user000"); cohort k is the same bodies
// with that one tag byte patched in place, so the client's hot loop
// encodes nothing and holds a single cohort in memory, while the
// server sees a fresh population of users per cohort.

const (
	// bodyPoints matches mobiserve's default -batch and mobirouter's
	// default -batch: one request is one engine batch.
	bodyPoints = 256

	// cohortTags are the tag bytes of cohorts 0, 1, 2, ... — the second
	// byte of every user name. Their number bounds how often the base
	// day can be replayed within one run.
	cohortTags = "0123456789abcdefghijklmnopqrstuvwxyz"

	// tagOffset is where the tag byte sits in an encoded record:
	// right after `{"user":"c`.
	tagOffset = len(`{"user":"c`)
)

// record is one point of the base day in send order.
type record struct {
	user int32 // index into traffic.users
	pt   trace.Point
}

// connTraffic is what one client connection sends, cohort after
// cohort: its share of the base day as records and as encoded bodies.
type connTraffic struct {
	recs    []record
	bodies  [][]byte  // sub-slices of one buffer; body i holds recs[i*bodyPoints:...]
	tagOffs [][]int32 // per body, the offset of each record's tag byte
}

// traffic is a workload's pinned traffic.
type traffic struct {
	users    []string // cohort-0 names, sorted
	conns    []connTraffic
	points   int    // points in one cohort
	checksum string // FNV-64a over the connection-ordered bodies of cohort 0
}

// baseDay generates a workload's base day and, for the evaluation
// workload, its ground-truth stays. Users keep the generator's names.
func baseDay(w *workload, seed int64, scale float64) (*trace.Dataset, []synth.Stay, error) {
	scaled := func(n, floor int) int {
		return max(floor, int(math.Round(float64(n)*scale)))
	}
	cc := synth.DefaultCommuterConfig()
	cc.Seed = seed
	cc.Users = scaled(w.commuters, 4)
	gen, err := synth.Commuters(cc)
	if err != nil {
		return nil, nil, err
	}
	if w.cabs == 0 {
		return gen.Dataset, gen.Stays, nil
	}
	tc := synth.DefaultTaxiConfig()
	tc.Seed = seed
	tc.Vehicles = scaled(w.cabs, 2)
	tc.TripsEach = scaled(w.cabTrips, 2)
	tc.Sampling = time.Second
	// The fleet shares the commuters' city, so both populations fall in
	// one bounding box.
	tc.Center = cc.Center
	fleet, err := synth.TaxiFleet(tc)
	if err != nil {
		return nil, nil, err
	}
	d, err := trace.NewDataset(append(fleet.Dataset.Traces(), gen.Dataset.Traces()...))
	return d, nil, err
}

// cohortName returns a base-day user's name in cohort k.
func cohortName(user string, k int) string {
	return "c" + cohortTags[k:k+1] + "-" + user
}

// buildTraffic turns a base day into the per-connection bodies.
func buildTraffic(d *trace.Dataset, conns int) (*traffic, error) {
	tr := &traffic{conns: make([]connTraffic, conns)}
	// Dataset.Traces is sorted by user, so the user index doubles as the
	// tie-break of the arrival order below.
	var all []record
	connOf := make([]int, 0, d.Len())
	for i, t := range d.Traces() {
		name := cohortName(t.User, 0)
		tr.users = append(tr.users, name)
		connOf = append(connOf, rng.Shard(name, conns))
		for _, p := range t.Points {
			all = append(all, record{user: int32(i), pt: p})
		}
	}
	// One global arrival order: by time, then user — the order
	// internal/load replays in. Each user's points stay chronological.
	slices.SortFunc(all, func(a, b record) int {
		if c := a.pt.Time.Compare(b.pt.Time); c != 0 {
			return c
		}
		return cmp.Compare(a.user, b.user)
	})
	tr.points = len(all)
	for _, r := range all {
		c := &tr.conns[connOf[r.user]]
		c.recs = append(c.recs, r)
	}

	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i := range tr.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = tr.conns[i].encode(tr.users)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	h := fnv.New64a()
	for _, c := range tr.conns {
		for _, b := range c.bodies {
			h.Write(b)
		}
	}
	tr.checksum = strconv.FormatUint(h.Sum64(), 16)
	return tr, nil
}

// encode renders the connection's records into bodies.
func (c *connTraffic) encode(users []string) error {
	var buf bytes.Buffer
	buf.Grow(len(c.recs) * 112) // a record is about 105 bytes
	starts := make([]int32, 0, len(c.recs)+1)
	for _, r := range c.recs {
		starts = append(starts, int32(buf.Len()))
		if err := traceio.WriteJSONLRecord(&buf, users[r.user], r.pt); err != nil {
			return err
		}
	}
	starts = append(starts, int32(buf.Len()))
	// The buffer has stopped growing, so the bodies can alias it.
	data := buf.Bytes()
	for lo := 0; lo < len(c.recs); lo += bodyPoints {
		hi := min(lo+bodyPoints, len(c.recs))
		base := starts[lo]
		offs := make([]int32, hi-lo)
		for j := range offs {
			offs[j] = starts[lo+j] - base + int32(tagOffset)
		}
		body := data[base:starts[hi]:starts[hi]]
		for _, o := range offs {
			if body[o] != cohortTags[0] {
				return fmt.Errorf("traffic: no cohort tag at offset %d of %.40q", o, body[o-int32(tagOffset):])
			}
		}
		c.bodies = append(c.bodies, body)
		c.tagOffs = append(c.tagOffs, offs)
	}
	return nil
}

// setCohort patches body i in place to carry cohort k's tag.
func (c *connTraffic) setCohort(i, k int) {
	body, tag := c.bodies[i], cohortTags[k]
	for _, o := range c.tagOffs[i] {
		body[o] = tag
	}
}

// bodyRecs returns the records body i encodes.
func (c *connTraffic) bodyRecs(i int) []record {
	lo := i * bodyPoints
	return c.recs[lo:min(lo+bodyPoints, len(c.recs))]
}

// maxBodies is how many bodies a connection can send before it runs
// out of cohort tags.
func (c *connTraffic) maxBodies() int { return len(c.bodies) * len(cohortTags) }
