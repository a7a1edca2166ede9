package store

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"mobipriv/internal/par"
	"mobipriv/internal/trace"
)

// TraceScanFunc receives one complete, validated trace assembled from
// all of a user's blocks. The trace is freshly built and owned by the
// callee.
//
// ScanTraces calls it concurrently, from up to one goroutine per
// shard. It is called at most once per user in a scan, so calls for one
// user never overlap.
type TraceScanFunc func(tr *trace.Trace) error

// partBlock addresses one block anywhere in the store: the segment's
// index in Store.segs plus the block's index in that segment's footer.
type partBlock struct{ seg, block int }

// shardUserBlocks groups one shard's footer entries by user across all
// of the shard's generations, preserving the order of each user's first
// block (generations oldest first, file order within each) — the
// iteration order of every trace-assembling scan. Shard pinning makes
// this the complete block set of every listed user.
func (s *Store) shardUserBlocks(sh int) (order []string, blocks map[string][]partBlock) {
	blocks = make(map[string][]partBlock)
	for _, si := range s.shards[sh] {
		seg := s.segs[si]
		for bi := range seg.entries {
			u := seg.entries[bi].user
			if len(blocks[u]) == 0 {
				order = append(order, u)
			}
			blocks[u] = append(blocks[u], partBlock{seg: si, block: bi})
		}
	}
	return order, blocks
}

// gatherUser assembles one user's points from the given blocks (all of
// one shard, generations oldest first): pruned or decoded block by
// block, point-filtered, merged, time-sorted and
// microsecond-deduplicated (first observation wins, exactly as Load).
// The result may be empty when every point is pruned or filtered away.
//
// In the single-block fast path the returned slice may be shared with
// the block cache: it is already sorted and deduped by the Writer, and
// callers only hand it to trace.New (which copies), so it is never
// mutated and nothing is buffered. Multi-block users are counted on the
// buffered gauge while their fragments are held, and the high-water
// mark folds into peak via par.PeakAdd.
func (s *Store) gatherUser(idxs []partBlock, users map[string]bool, opts ScanOptions, stats *ScanStats, buffered, peak *int64) ([]trace.Point, error) {
	readBlock := func(pb partBlock) ([]trace.Point, error) {
		seg := s.segs[pb.seg]
		e := &seg.entries[pb.block]
		atomic.AddInt64(&stats.BlocksTotal, 1)
		if s.pruned(e, users, opts) {
			atomic.AddInt64(&stats.BlocksPruned, 1)
			return nil, nil
		}
		user, raw, err := s.block(pb.seg, pb.block, stats, opts.NoCache)
		if err != nil {
			return nil, fmt.Errorf("segment %s block %d: %w", seg.file, pb.block, err)
		}
		if user != e.user {
			return nil, corruptf("segment %s block %d: footer user %q, block user %q", seg.file, pb.block, e.user, user)
		}
		return filterPoints(raw, opts), nil
	}
	if len(idxs) == 1 {
		return readBlock(idxs[0])
	}
	par.PeakAdd(buffered, peak)
	defer atomic.AddInt64(buffered, -1)
	var buf []trace.Point
	for _, pb := range idxs {
		pts, err := readBlock(pb)
		if err != nil {
			return nil, err
		}
		buf = append(buf, pts...)
	}
	if len(buf) == 0 {
		return nil, nil
	}
	// The stable sort keeps equal-microsecond points in append order
	// (older generation first), so the first-wins winner is the same one
	// a single-session store would have kept.
	sort.SliceStable(buf, func(a, b int) bool { return buf[a].Time.Before(buf[b].Time) })
	return dedupeMicros(buf), nil
}

// ScanTraces streams whole traces out of the store: each user's blocks
// — however fragmented by streaming appends, within a generation or
// across reopen sessions — are merged, time-sorted and
// microsecond-deduplicated (first observation wins, exactly as Load),
// then delivered to fn as one validated trace.
//
// Unlike Load, ScanTraces never materializes the dataset. Each shard
// goroutine gathers one user at a time: the footers index every user's
// blocks across the shard's generations up front, so the goroutine
// reads exactly that user's blocks, emits the trace, and releases the
// memory before moving on. Peak memory is therefore one user's
// fragments per shard goroutine regardless of how interleaved the
// shard is; the high-water count of concurrently buffered multi-block
// users lands in ScanStats.PeakBufferedUsers (bounded by the goroutine
// count, and 0 for a compacted store where every user is a single
// block). The cost of the bound is read order: an interleaved shard is
// read per-user rather than sequentially, while a compacted or
// Add-built store (contiguous user runs, one generation) is still read
// nearly front to back.
//
// Shards are fanned across internal/par workers like Scan, so fn is
// called concurrently (one goroutine per shard at most) and must be
// safe for that. Within a shard, users are delivered in the order of
// their first blocks (generations oldest first). Users whose every
// point is removed by the bbox/time filters are not delivered.
func (s *Store) ScanTraces(ctx context.Context, opts ScanOptions, fn TraceScanFunc) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if opts.Workers != 0 {
		ctx = par.WithWorkers(ctx, opts.Workers)
	}
	users := userSet(opts.Users)
	stats := opts.Stats
	if stats == nil {
		stats = &ScanStats{}
	}
	// buffered counts users being assembled across all segment
	// goroutines; its high-water mark lands in stats.PeakBufferedUsers.
	var buffered int64
	return par.Map(ctx, len(s.shards), func(sh int) error {
		order, blocks := s.shardUserBlocks(sh)
		for _, user := range order {
			if err := ctx.Err(); err != nil {
				return err
			}
			pts, err := s.gatherUser(blocks[user], users, opts, stats, &buffered, &stats.PeakBufferedUsers)
			if err != nil {
				return err
			}
			if len(pts) == 0 {
				continue
			}
			tr, err := trace.New(user, pts)
			if err != nil {
				return fmt.Errorf("store: user %q: %w", user, err)
			}
			atomic.AddInt64(&stats.Points, int64(tr.Len()))
			if err := fn(tr); err != nil {
				return err
			}
		}
		return nil
	})
}

// userSet builds the pruning set for a -users style filter; nil means
// no filtering.
func userSet(users []string) map[string]bool {
	if users == nil {
		return nil
	}
	set := make(map[string]bool, len(users))
	for _, u := range users {
		set[u] = true
	}
	return set
}
