package store

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mobipriv/internal/par"
	"mobipriv/internal/trace"
)

// PairScanFunc receives the two complete traces of one user, aligned
// across an original and an anonymized store. Exactly one side is nil
// for users present (after filtering) in only one store. Both traces
// are freshly built and owned by the callee. Under ScanOptions.NoCache
// a trace's Points are usually the very buffer its blocks were decoded
// into, not a copy; no other reader holds it.
//
// ScanTracesPaired calls it concurrently, from up to one goroutine per
// original-store shard (then per anonymized-store shard, for the users
// only that store holds). It is called at most once per user in a
// scan, so calls for one user never overlap.
type PairScanFunc func(orig, anon *trace.Trace) error

// PairScanStats reports what a paired scan did: how many users were
// aligned, which were one-sided, and the per-side block counters that
// prove pruning skipped work.
type PairScanStats struct {
	// Paired counts users delivered with both sides non-nil.
	Paired int64

	// OnlyOrig and OnlyAnon list the users delivered with one side nil
	// — present (with at least one point surviving the filters) in only
	// that store. Sorted.
	OnlyOrig []string
	OnlyAnon []string

	// Orig and Anon are the per-side scan counters. Their
	// PeakBufferedUsers fields stay zero; the paired scan tracks one
	// combined gauge below instead.
	Orig ScanStats
	Anon ScanStats

	// PeakBufferedUsers is the high-water mark of users concurrently in
	// flight — held from the start of a user's first gather until the
	// pair callback returns, so it covers the window where one side's
	// assembled trace is retained while the other side's fragments are
	// gathered. At most one per scanning goroutine, however large the
	// stores: the observable proof that memory is bounded by the worker
	// count.
	PeakBufferedUsers int64
}

// ScanTracesPaired streams the traces of two stores in lockstep,
// aligned by user: for every user it assembles the complete trace from
// each store (merging fragments exactly as ScanTraces) and delivers
// the pair in a single call. The stores may disagree on shard count —
// alignment uses each store's own user-hash routing, not segment
// numbering — and on user population: users present in only one store
// are delivered with the other side nil and recorded in
// PairScanStats.OnlyOrig/OnlyAnon.
//
// The bbox/time/user filters in opts apply to both sides, with footer
// pruning on both (the per-side counters land in stats.Orig and
// stats.Anon). A side whose every point is filtered away counts as
// absent; a user filtered to empty on both sides is not delivered at
// all.
//
// The scan fans the original store's shards across internal/par
// workers; each goroutine walks its shard's users in first-block order
// (generations oldest first), gathering the anonymized side of each
// user through the anonymized store's footer index. A second pass
// sweeps the users that exist only in the anonymized store. fn is
// therefore called concurrently and must be safe for that. Memory
// stays bounded by the goroutine count: at any moment a goroutine
// holds one user's assembled traces, never a dataset.
func ScanTracesPaired(ctx context.Context, orig, anon *Store, opts ScanOptions, fn PairScanFunc) (*PairScanStats, error) {
	if orig.closed.Load() || anon.closed.Load() {
		return nil, ErrClosed
	}
	if opts.Workers != 0 {
		ctx = par.WithWorkers(ctx, opts.Workers)
	}
	users := userSet(opts.Users)
	st := &PairScanStats{}
	// inFlight gauges users being processed (gathered on either side or
	// awaiting delivery); the per-fragment assembly windows inside
	// gatherUser feed a throwaway gauge, because they concern the same
	// user this gauge already counts.
	var inFlight, assembling, assemblingPeak int64

	// Index the anonymized side by user up front (footers only — no
	// block is read): anonBlocks[shard][user] lists the user's blocks
	// across that shard's generations, and shardOf routes a user
	// straight to its shard whatever the shard count. anonOrder keeps
	// each shard's first-block order for the pass-2 sweep.
	anonShards := anon.man.Shards
	anonOrder := make([][]string, anonShards)
	anonBlocks := make([]map[string][]partBlock, anonShards)
	for sh := range anonOrder {
		anonOrder[sh], anonBlocks[sh] = anon.shardUserBlocks(sh)
	}
	// Users present in the original store's footers: the anon-only
	// sweep skips these, because the first pass already considered them
	// (even when their original points were all filtered away).
	origSeen := make(map[string]bool)
	for _, seg := range orig.segs {
		for bi := range seg.entries {
			origSeen[seg.entries[bi].user] = true
		}
	}

	var mu sync.Mutex // guards OnlyOrig/OnlyAnon
	// gather assembles one user's trace from the blocks idxs of side s,
	// nil when no point survives the filters. It counts into a per-user
	// ScanStats and folds that into the side's totals, so it knows
	// whether this gather hit the block cache. Under NoCache one that
	// did not holds the only reference to its points, and the trace
	// keeps them as its storage: sorted stably in place and validated,
	// as trace.New does to its copy. A store's points are time-sorted
	// already, so they are validated first and sorted only when that
	// fails; a stable sort of sorted points changes nothing.
	gather := func(s *Store, user string, idxs []partBlock, side *ScanStats) (*trace.Trace, error) {
		var local ScanStats
		pts, err := s.gatherUser(idxs, users, opts, &local, &assembling, &assemblingPeak)
		atomic.AddInt64(&side.BlocksTotal, local.BlocksTotal)
		atomic.AddInt64(&side.BlocksPruned, local.BlocksPruned)
		atomic.AddInt64(&side.BlocksDecoded, local.BlocksDecoded)
		atomic.AddInt64(&side.CacheHits, local.CacheHits)
		if err != nil || len(pts) == 0 {
			return nil, err
		}
		var tr *trace.Trace
		if opts.NoCache && local.CacheHits == 0 {
			tr = &trace.Trace{User: user, Points: pts}
			if err = tr.Validate(); err != nil {
				sort.SliceStable(pts, func(a, b int) bool { return pts[a].Time.Before(pts[b].Time) })
				err = tr.Validate()
			}
		} else {
			tr, err = trace.New(user, pts) // pts may be the cache's
		}
		if err != nil {
			return nil, fmt.Errorf("store: user %q: %w", user, err)
		}
		return tr, nil
	}
	gatherAnon := func(user string) (*trace.Trace, error) {
		idxs := anonBlocks[shardOf(user, anonShards)][user]
		if len(idxs) == 0 {
			return nil, nil
		}
		tr, err := gather(anon, user, idxs, &st.Anon)
		if tr != nil {
			atomic.AddInt64(&st.Anon.Points, int64(tr.Len()))
		}
		return tr, err
	}

	// Pass 1: walk the original store; every user found here has both
	// sides resolved, one-sided or not.
	err := par.Map(ctx, len(orig.shards), func(sh int) error {
		order, blocks := orig.shardUserBlocks(sh)
		for _, user := range order {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := func() error {
				// The gauge hold spans both gathers and the delivery:
				// the window where this goroutine retains one user's
				// traces from both stores at once.
				par.PeakAdd(&inFlight, &st.PeakBufferedUsers)
				defer atomic.AddInt64(&inFlight, -1)
				otr, err := gather(orig, user, blocks[user], &st.Orig)
				if err != nil {
					return err
				}
				atr, err := gatherAnon(user)
				if err != nil {
					return err
				}
				switch {
				case otr == nil && atr == nil:
					return nil
				case otr != nil && atr != nil:
					atomic.AddInt64(&st.Orig.Points, int64(otr.Len()))
					atomic.AddInt64(&st.Paired, 1)
				case otr != nil:
					atomic.AddInt64(&st.Orig.Points, int64(otr.Len()))
					mu.Lock()
					st.OnlyOrig = append(st.OnlyOrig, user)
					mu.Unlock()
				default:
					mu.Lock()
					st.OnlyAnon = append(st.OnlyAnon, user)
					mu.Unlock()
				}
				return fn(otr, atr)
			}()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: sweep the users that exist only in the anonymized store.
	err = par.Map(ctx, len(anonOrder), func(sh int) error {
		for _, user := range anonOrder[sh] {
			if err := ctx.Err(); err != nil {
				return err
			}
			if origSeen[user] {
				continue
			}
			err := func() error {
				par.PeakAdd(&inFlight, &st.PeakBufferedUsers)
				defer atomic.AddInt64(&inFlight, -1)
				atr, err := gatherAnon(user)
				if err != nil || atr == nil {
					return err
				}
				mu.Lock()
				st.OnlyAnon = append(st.OnlyAnon, user)
				mu.Unlock()
				return fn(nil, atr)
			}()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(st.OnlyOrig)
	sort.Strings(st.OnlyAnon)
	return st, nil
}
