package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/par"
	"mobipriv/internal/trace"
)

// Store is an opened on-disk dataset. Segment footers are loaded
// eagerly (they are small); block payloads are read on demand with
// pread, so a Store is safe for concurrent scans and never holds more
// than the cached blocks in memory.
type Store struct {
	dir  string
	man  Manifest
	segs []*segReader
	// shards indexes segs by hash shard: shards[sh] lists the indices
	// of that shard's segments across all generations, oldest first.
	// Every scan walks one shard per goroutine in that order, so a
	// shard's generations are always read as one log and first-wins
	// dedup stays independent of the worker count.
	shards [][]int
	cache  *blockCache

	closed atomic.Bool
}

// segReader is one opened segment: its file handle plus decoded footer.
type segReader struct {
	file    string
	gen     int
	f       *os.File
	entries []blockEntry
}

// OpenOptions tunes Open.
type OpenOptions struct {
	// CacheBlocks is the LRU block-cache capacity in decoded blocks
	// (default 256; negative disables caching).
	CacheBlocks int
}

// Open opens the store directory at path with default options.
func Open(path string) (*Store, error) { return OpenWith(path, OpenOptions{}) }

// OpenWith opens the store directory at path.
func OpenWith(path string, opts OpenOptions) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	man, err := parseManifest(data)
	if err != nil {
		return nil, err
	}
	cacheCap := opts.CacheBlocks
	if cacheCap == 0 {
		cacheCap = 256
	}
	s := &Store{dir: path, man: man, shards: make([][]int, man.Shards), cache: newBlockCache(cacheCap)}
	// Group the segments by shard, generations oldest first, so every
	// scan reads a shard's generations as one log. parseManifest
	// guarantees the (shard, gen) pairs are in range and unique; sorting
	// here frees readers from assuming any manifest ordering.
	order := make([]int, len(man.Segments))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return man.Segments[order[a]].Gen < man.Segments[order[b]].Gen })
	for _, mi := range order {
		si := man.Segments[mi]
		seg, err := openSegment(filepath.Join(path, si.File), si.Size)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("segment %s: %w", si.File, err)
		}
		seg.gen = si.Gen
		s.shards[si.Shard] = append(s.shards[si.Shard], len(s.segs))
		s.segs = append(s.segs, seg)
	}
	return s, nil
}

// openSegment opens one segment file, verifying magics and loading the
// footer. committedSize, when positive, is the byte size the manifest
// committed: bytes past it are a torn tail from a crashed later session
// and are never read — the logical end of the segment is the committed
// size, wherever the physical file ends. 0 (a version-1 manifest,
// which recorded no sizes) trusts the file size.
func openSegment(path string, committedSize int64) (*segReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := st.Size()
	if committedSize > 0 {
		if size < committedSize {
			f.Close()
			return nil, corruptf("segment is %d bytes, manifest committed %d", size, committedSize)
		}
		size = committedSize
	}
	minSize := int64(len(magicHeader)) + 16
	if size < minSize {
		f.Close()
		return nil, corruptf("segment is %d bytes, smaller than the %d-byte envelope", size, minSize)
	}
	var head [len(magicHeader)]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		f.Close()
		return nil, corruptf("read header: %v", err)
	}
	if string(head[:]) != magicHeader {
		f.Close()
		return nil, corruptf("bad segment magic %q", head)
	}
	var trailer [16]byte
	if _, err := f.ReadAt(trailer[:], size-16); err != nil {
		f.Close()
		return nil, corruptf("read trailer: %v", err)
	}
	if string(trailer[8:]) != magicTrailer {
		f.Close()
		return nil, corruptf("bad trailer magic %q (truncated segment?)", trailer[8:])
	}
	footerLen := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerLen < 0 || footerLen > size-minSize {
		f.Close()
		return nil, corruptf("footer length %d out of range for %d-byte segment", footerLen, size)
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, size-16-footerLen); err != nil {
		f.Close()
		return nil, corruptf("read footer: %v", err)
	}
	entries, err := decodeFooter(footer)
	if err != nil {
		f.Close()
		return nil, err
	}
	dataEnd := uint64(size - 16 - footerLen)
	for i, e := range entries {
		// Length is checked on its own first so a huge corrupt value
		// cannot overflow offset+length past the bound.
		if e.offset < uint64(len(magicHeader)) || e.length > dataEnd || e.offset > dataEnd-e.length {
			f.Close()
			return nil, corruptf("block %d spans [%d,%d) outside data region [%d,%d)",
				i, e.offset, e.offset+e.length, len(magicHeader), dataEnd)
		}
	}
	return &segReader{file: filepath.Base(path), f: f, entries: entries}, nil
}

// Manifest returns the store's manifest.
func (s *Store) Manifest() Manifest { return s.man }

// Bounds returns the dataset bounding box recorded in the manifest
// (empty for an empty store).
func (s *Store) Bounds() geo.BBox {
	if len(s.man.BBoxE7) != 4 {
		return geo.BBox{}
	}
	return geo.NewBBox(
		geo.Point{Lat: dequantize(s.man.BBoxE7[0]), Lng: dequantize(s.man.BBoxE7[1])},
		geo.Point{Lat: dequantize(s.man.BBoxE7[2]), Lng: dequantize(s.man.BBoxE7[3])},
	)
}

// TimeSpan returns the dataset time range recorded in the manifest; ok
// is false for an empty store.
func (s *Store) TimeSpan() (from, to time.Time, ok bool) {
	if s.man.Points == 0 {
		return time.Time{}, time.Time{}, false
	}
	return fromMicros(s.man.MinTimeUS), fromMicros(s.man.MaxTimeUS), true
}

// Close releases the segment file handles.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var first error
	for _, seg := range s.segs {
		if seg == nil {
			continue
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ScanOptions filters and tunes a Scan. The zero value scans
// everything serially (or with the worker budget already carried by
// the context).
type ScanOptions struct {
	// BBox keeps only points inside the box; blocks whose footer bbox
	// is disjoint from it are pruned without being read.
	BBox geo.BBox

	// From/To keep only points with From <= t <= To when non-zero;
	// blocks entirely outside the window are pruned without being read.
	From, To time.Time

	// Users keeps only the listed users (nil means all). Non-matching
	// blocks are pruned without being read.
	Users []string

	// Workers overrides the context's internal/par worker budget for
	// this scan: 0 inherits, negative means one worker per CPU.
	Workers int

	// NoCache keeps this scan from inserting decoded blocks into the
	// LRU cache — for one-shot full passes (Load) that would only
	// evict useful entries and pin dead memory. Existing cache entries
	// are still used. Because nothing else keeps the blocks it decodes,
	// ScanTracesPaired hands them over: a user's gathered buffer
	// becomes its trace's Points, without a copy, unless a block came
	// from the cache.
	NoCache bool

	// Stats, when non-nil, receives the scan's pruning and cache
	// counters (written atomically; read after Scan returns).
	Stats *ScanStats
}

// ScanStats reports what a Scan did — the observable proof that
// pruning skipped work.
type ScanStats struct {
	BlocksTotal   int64 // blocks considered across all segments
	BlocksPruned  int64 // skipped on footer stats without being read
	BlocksDecoded int64 // read from disk and decoded
	CacheHits     int64 // served from the LRU block cache
	Points        int64 // points yielded to fn after point filters

	// PeakBufferedUsers is the high-water mark of multi-block users
	// being assembled at once — ScanTraces only, at most one per
	// shard goroutine; a plain Scan (and any single-block user)
	// buffers nothing and leaves it 0.
	PeakBufferedUsers int64
}

// ScanFunc receives one block-run of points: the user and a time-sorted
// slice. A user split across several blocks (a streamed append) is
// delivered in several calls. The slice may be shared with the block
// cache: treat it as read-only and do not retain it.
//
// Scan calls it concurrently, from up to one goroutine per shard. The
// calls for one user are serialised: shard pinning puts all of a
// user's blocks in one shard, whose goroutine delivers them one after
// another.
type ScanFunc func(user string, pts []trace.Point) error

// Scan streams matching block-runs to fn, fanning the store's shards
// across internal/par workers. fn is called concurrently (one goroutine
// per shard at most) and must be safe for that; within a shard, blocks
// arrive generation by generation (oldest first), each in file order.
// Block pruning uses only footer stats; the per-point filters make the
// result exact.
func (s *Store) Scan(ctx context.Context, opts ScanOptions, fn ScanFunc) error {
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
	err := par.Map(ctx, len(s.shards), func(sh int) error {
		for _, si := range s.shards[sh] {
			seg := s.segs[si]
			for bi := range seg.entries {
				if err := ctx.Err(); err != nil {
					return err
				}
				e := &seg.entries[bi]
				atomic.AddInt64(&stats.BlocksTotal, 1)
				if s.pruned(e, users, opts) {
					atomic.AddInt64(&stats.BlocksPruned, 1)
					continue
				}
				user, pts, err := s.block(si, bi, stats, opts.NoCache)
				if err != nil {
					return fmt.Errorf("segment %s block %d: %w", seg.file, bi, err)
				}
				pts = filterPoints(pts, opts)
				if len(pts) == 0 {
					continue
				}
				atomic.AddInt64(&stats.Points, int64(len(pts)))
				if err := fn(user, pts); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return err
}

// pruned reports whether a block's footer stats prove it matches
// nothing — the fast path that skips reading the block entirely.
func (s *Store) pruned(e *blockEntry, users map[string]bool, opts ScanOptions) bool {
	if users != nil && !users[e.user] {
		return true
	}
	if !opts.From.IsZero() && e.maxT < toMicros(opts.From) {
		return true
	}
	if !opts.To.IsZero() && e.minT > toMicros(opts.To) {
		return true
	}
	if !opts.BBox.IsEmpty() {
		if dequantize(e.maxLat) < opts.BBox.MinLat || dequantize(e.minLat) > opts.BBox.MaxLat ||
			dequantize(e.maxLng) < opts.BBox.MinLng || dequantize(e.minLng) > opts.BBox.MaxLng {
			return true
		}
	}
	return false
}

// Matches reports whether a point passes the exact per-point filters
// (From <= t <= To, bbox containment). It is the single definition of
// the filter semantics: pruned store scans apply it after block
// pruning, and cliutil.FilterDataset applies it to in-memory datasets,
// so a filtered batch run and a filtered store-native run always
// select the same points. The user filter is per-trace, not per-point,
// and is not part of this predicate.
func (o ScanOptions) Matches(p trace.Point) bool {
	if !o.From.IsZero() && p.Time.Before(o.From) {
		return false
	}
	if !o.To.IsZero() && p.Time.After(o.To) {
		return false
	}
	if !o.BBox.IsEmpty() && !o.BBox.Contains(p.Point) {
		return false
	}
	return true
}

// filterPoints applies the exact per-point filters, copying only when
// something is dropped.
func filterPoints(pts []trace.Point, opts ScanOptions) []trace.Point {
	if opts.From.IsZero() && opts.To.IsZero() && opts.BBox.IsEmpty() {
		return pts
	}
	all := true
	for _, p := range pts {
		if !opts.Matches(p) {
			all = false
			break
		}
	}
	if all {
		return pts
	}
	out := make([]trace.Point, 0, len(pts))
	for _, p := range pts {
		if opts.Matches(p) {
			out = append(out, p)
		}
	}
	return out
}

// block returns the decoded block, via the LRU cache when possible. The
// CRC recorded in the footer is verified before decoding.
func (s *Store) block(seg, bi int, stats *ScanStats, noCache bool) (string, []trace.Point, error) {
	key := blockKey{seg: seg, block: bi}
	if cb, ok := s.cache.get(key); ok {
		atomic.AddInt64(&stats.CacheHits, 1)
		return cb.user, cb.pts, nil
	}
	sr := s.segs[seg]
	e := &sr.entries[bi]
	data := make([]byte, e.length)
	if _, err := sr.f.ReadAt(data, int64(e.offset)); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return "", nil, corruptf("block truncated: %v", err)
		}
		return "", nil, err
	}
	if crc := blockCRC(data); crc != e.crc {
		return "", nil, corruptf("CRC mismatch (stored %08x, computed %08x)", e.crc, crc)
	}
	user, pts, err := decodeBlock(data)
	if err != nil {
		return "", nil, err
	}
	if user != e.user || len(pts) != e.points {
		return "", nil, corruptf("block header (%q, %d pts) disagrees with footer (%q, %d pts)",
			user, len(pts), e.user, e.points)
	}
	atomic.AddInt64(&stats.BlocksDecoded, 1)
	if !noCache {
		s.cache.put(key, cachedBlock{user: user, pts: pts})
	}
	return user, pts, nil
}

// Load materializes the whole store as a validated trace.Dataset — the
// compatibility path into every batch consumer. Blocks of a fragmented
// user are merged and time-sorted; observations that collapsed onto the
// same on-disk microsecond across blocks keep only the first, so any
// store the Writer accepted loads cleanly. Load fans segments across
// one worker per CPU and bypasses the block cache (a one-shot pass
// would only pin dead memory).
func (s *Store) Load(ctx context.Context) (*trace.Dataset, error) {
	var mu sync.Mutex
	byUser := make(map[string][]trace.Point, s.man.Users)
	err := s.Scan(ctx, ScanOptions{Workers: runtime.NumCPU(), NoCache: true}, func(user string, pts []trace.Point) error {
		mu.Lock()
		byUser[user] = append(byUser[user], pts...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	traces := make([]*trace.Trace, len(users))
	if err := par.Map(par.WithWorkers(ctx, runtime.NumCPU()), len(users), func(i int) error {
		pts := byUser[users[i]]
		sort.SliceStable(pts, func(a, b int) bool { return pts[a].Time.Before(pts[b].Time) })
		tr, err := trace.New(users[i], dedupeMicros(pts))
		if err != nil {
			return fmt.Errorf("store: user %q: %w", users[i], err)
		}
		traces[i] = tr
		return nil
	}); err != nil {
		return nil, err
	}
	return trace.NewDataset(traces)
}
