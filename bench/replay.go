package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"mobipriv"
	"mobipriv/internal/risk"
	"mobipriv/internal/rng"
	"mobipriv/internal/store"
	"mobipriv/internal/stream"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// The serial reference pipeline. It pushes the traffic a serving run
// sent through the same public functions mobiserve's handleIngest and
// sink call, in the same order per user — decode, rng.Shard, the
// per-user streaming mechanism, the risk monitor's tap, store append —
// on one goroutine and with no HTTP, engine or locks in between. Its
// output store is what the served sink must equal, and with a recorder
// attached each call into a layer becomes a span.

// sutShards is mobiserve's default -shards.
const sutShards = 8

// digest identifies a multiset of stored points: it does not depend on
// the order blocks were written in, nor on how users are spread over
// stores.
type digest struct {
	points int64
	sum    uint64
}

// digestStores digests everything the stores at paths hold.
func digestStores(ctx context.Context, paths ...string) (digest, error) {
	var points atomic.Int64
	var sum atomic.Uint64
	for _, p := range paths {
		st, err := store.Open(p)
		if err != nil {
			return digest{}, err
		}
		err = st.Scan(ctx, store.ScanOptions{NoCache: true, Workers: -1},
			func(user string, pts []trace.Point) error {
				uh := rng.Hash64(user)
				var s uint64
				for _, p := range pts {
					h := rng.Mix(uh ^ uint64(p.Time.UnixMicro()))
					h = rng.Mix(h ^ math.Float64bits(p.Lat))
					s += rng.Mix(h ^ math.Float64bits(p.Lng))
				}
				sum.Add(s)
				points.Add(int64(len(pts)))
				return nil
			})
		st.Close()
		if err != nil {
			return digest{}, err
		}
	}
	return digest{points: points.Load(), sum: sum.Load()}, nil
}

// countingFS is the real filesystem behind store.Options.FS, counting
// what a Writer does to it.
type countingFS struct {
	writes, bytes, syncs int64
}

type countingFile struct {
	*os.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	f.fs.writes++
	f.fs.bytes += int64(len(p))
	return f.File.Write(p)
}

func (f countingFile) Sync() error {
	f.fs.syncs++
	return f.File.Sync()
}

func (c *countingFS) Create(name string) (store.File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}

func (c *countingFS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (c *countingFS) Remove(name string) error               { return os.Remove(name) }
func (c *countingFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (c *countingFS) SyncDir(dir string) error {
	c.syncs++
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	d.Sync() // best effort, as the store's own filesystem does
	return nil
}

// userState is one user's streaming mechanism in the reference
// pipeline.
type userState struct {
	user string
	mech mobipriv.StreamMechanism
}

// replayResult is what one pass of the reference pipeline did.
type replayResult struct {
	in, out int
	wall    time.Duration
	fs      countingFS
	blocks  int64
	// perShard counts the input points rng.Shard places on each of a
	// worker's shards.
	perShard [sutShards]int64
}

// replayServing runs the reference pipeline over the first sent[c]
// bodies of every connection c, writing its output store to path.
// With decode set it decodes the encoded bodies as the server does;
// otherwise it takes the points the bodies were encoded from, which is
// the cheaper way to the same store. rec may be nil.
func replayServing(w *workload, tr *traffic, sent []int, path string, decode bool, rec *recorder) (*replayResult, error) {
	m, err := mobipriv.FromSpec(w.mechanism)
	if err != nil {
		return nil, err
	}
	factory, ok := mobipriv.AsStreaming(m)
	if !ok {
		return nil, fmt.Errorf("%s cannot stream", w.mechanism)
	}
	mon, err := risk.NewMonitor(risk.DefaultMonitorConfig())
	if err != nil {
		return nil, err
	}
	res := &replayResult{}
	sw, err := store.Create(path, store.Options{FS: &res.fs, Overwrite: true})
	if err != nil {
		return nil, err
	}

	var (
		states   = make(map[string]*userState)
		order    []*userState // creation order, so the final flush is deterministic
		names    [][]string   // names[k][u]: user u's name in cohort k
		updates  = make([]stream.Update, 0, bodyPoints)
		outPts   []trace.Point
		outUsers []*userState // outUsers[i] published outPts[outEnds[i-1]:outEnds[i]]
		outEnds  []int
	)
	cohortNames := func(k int) []string {
		for len(names) <= k {
			ns := make([]string, len(tr.users))
			for u, name := range tr.users {
				ns[u] = cohortName(name[len("c0-"):], len(names))
			}
			names = append(names, ns)
		}
		return names[k]
	}
	publish := func(st *userState, pts []trace.Point) {
		if len(pts) > 0 {
			outPts = append(outPts, pts...)
			outUsers = append(outUsers, st)
			outEnds = append(outEnds, len(outPts))
		}
	}
	// tapAndStore hands what the mechanisms published to the risk
	// monitor and the store, as mobiserve's riskTap and sink do.
	tapAndStore := func(traceID, parent int64, endTrace bool) error {
		id := rec.begin(traceID, parent, "risk.observe")
		lo := 0
		for i, st := range outUsers {
			mon.Observe(st.user, outPts[lo:outEnds[i]]...)
			lo = outEnds[i]
		}
		if endTrace {
			for _, st := range order {
				mon.EndTrace(st.user)
			}
		}
		rec.end(id, len(outPts))
		id = rec.begin(traceID, parent, "store.append")
		lo = 0
		for i, st := range outUsers {
			for _, p := range outPts[lo:outEnds[i]] {
				if err := sw.Append(st.user, p); err != nil {
					return err
				}
			}
			lo = outEnds[i]
		}
		rec.end(id, len(outPts))
		res.out += len(outPts)
		outPts, outUsers, outEnds = outPts[:0], outUsers[:0], outEnds[:0]
		return nil
	}

	start := time.Now()
	traceID := int64(0)
	// Bodies are taken round-robin over the connections, which is close
	// to the order the server received them in.
	for j, more := 0, true; more; j++ {
		more = false
		for ci := range tr.conns {
			if j >= sent[ci] {
				continue
			}
			more = true
			c := &tr.conns[ci]
			i, k := j%len(c.bodies), j/len(c.bodies)
			traceID++
			root := rec.begin(traceID, 0, "request")

			id := rec.begin(traceID, root, "traceio.decode")
			updates = updates[:0]
			if decode {
				c.setCohort(i, k)
				err := traceio.DecodeJSONL(bytes.NewReader(c.bodies[i]), func(user string, p trace.Point) error {
					updates = append(updates, stream.Update{User: user, Point: p})
					return nil
				})
				if err != nil {
					return nil, err
				}
			} else {
				ns := cohortNames(k)
				for _, r := range c.bodyRecs(i) {
					updates = append(updates, stream.Update{User: ns[r.user], Point: r.pt})
				}
			}
			rec.end(id, len(updates))

			id = rec.begin(traceID, root, "stream.partition")
			for _, u := range updates {
				res.perShard[rng.Shard(u.User, sutShards)]++
			}
			rec.end(id, len(updates))

			id = rec.begin(traceID, root, "mechanism.push")
			for _, u := range updates {
				st := states[u.User]
				if st == nil {
					st = &userState{user: u.User, mech: factory(u.User)}
					states[u.User] = st
					order = append(order, st)
				}
				publish(st, st.mech.Push(u.Point))
			}
			rec.end(id, len(updates))

			if err := tapAndStore(traceID, root, false); err != nil {
				return nil, err
			}
			res.in += len(updates)
			rec.end(root, len(updates))
		}
	}

	// POST /flush and shutdown: every mechanism gives up what it still
	// withholds, then the sink is flushed and committed.
	traceID++
	root := rec.begin(traceID, 0, "flush")
	id := rec.begin(traceID, root, "mechanism.push")
	for _, st := range order {
		publish(st, st.mech.Flush())
	}
	rec.end(id, 0)
	if err := tapAndStore(traceID, root, true); err != nil {
		return nil, err
	}
	id = rec.begin(traceID, root, "store.flush")
	if err := sw.Flush(); err != nil {
		return nil, err
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	rec.end(id, res.out)
	rec.end(root, 0)
	res.wall = time.Since(start)
	res.blocks = sw.Stats().Blocks
	return res, nil
}
