// Command mobistore manages mobipriv's native on-disk dataset format
// (internal/store): sharded, columnar ".mstore" directories that the
// batch tools (mobianon, mobieval, mobibench), the generator (mobigen)
// and the streaming service (mobiserve) all read and write.
//
// Subcommands:
//
//	mobistore build -in raw.csv[.gz] -out data.mstore [-shards 8] [-block 4096]
//	mobistore info data.mstore [-blocks]
//	mobistore cat data.mstore [-format csv|jsonl] [-users a,b] [-bbox minLat,minLng,maxLat,maxLng] [-from t] [-to t]
//	mobistore compact -in frag.mstore -out tidy.mstore [-shards 8]
//	mobistore merge -out all.mstore node0.mstore node1.mstore [node2.mstore ...]
//	mobistore diff orig.mstore anon.mstore [-workers 4]
//
// build streams any traceio input (CSV, JSONL, Geolife PLT, each
// optionally gzipped) into a store without materializing the dataset.
// cat runs a pruned scan: blocks whose footer stats cannot match the
// filters are skipped without being read. compact rewrites a store —
// typically one grown by mobiserve's streaming sink — merging each
// user's fragmented blocks into contiguous sorted runs; the merge
// streams trace-by-trace (store.Compact), so compacting a store never
// loads the dataset. merge joins the per-node sinks of a multi-node
// fleet (mobirouter in front of N mobiserve workers) into one store
// via the same streaming plumbing (store.Merge); the inputs must hold
// disjoint users, which hash routing guarantees by construction. diff
// pairs two stores user by user
// (store.ScanTracesPaired) and reports each user's divergence — point
// counts and the anonymized points' mean/max displacement from the
// original path — without loading either dataset.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"mobipriv/internal/cliutil"
	"mobipriv/internal/metrics"
	"mobipriv/internal/par"
	"mobipriv/internal/store"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobistore:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mobistore <build|info|cat|compact|merge|diff> [flags] (see go doc mobipriv/cmd/mobistore)")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "build":
		return runBuild(rest)
	case "info":
		return runInfo(rest, stdout)
	case "cat":
		return runCat(rest, stdout)
	case "compact":
		return runCompact(rest, stdout)
	case "merge":
		return runMerge(rest, stdout)
	case "diff":
		return runDiff(rest, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want build, info, cat, compact, merge or diff)", cmd)
	}
}

// runBuild streams a text dataset into a new store.
func runBuild(args []string) error {
	fs := flag.NewFlagSet("mobistore build", flag.ContinueOnError)
	var (
		in     = fs.String("in", "", "input dataset (.csv/.jsonl/.plt, optionally .gz); required")
		out    = fs.String("out", "", "output store directory (.mstore); required")
		shards = fs.Int("shards", 8, "segment files (scan parallelism)")
		block  = fs.Int("block", 4096, "max points per block (pruning granularity)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("build: -in and -out are required")
	}
	w, err := store.Create(*out, store.Options{Shards: *shards, BlockPoints: *block, Overwrite: true})
	if err != nil {
		return err
	}
	n := 0
	if err := traceio.DecodeFile(*in, func(user string, p trace.Point) error {
		n++
		return w.Append(user, p)
	}); err != nil {
		return fmt.Errorf("build %s: %w", *in, err)
	}
	if err := w.Close(); err != nil {
		return err
	}
	// Stored points can be fewer than input records when timestamps
	// collapse onto the same on-disk microsecond (e.g. raw PLT dumps).
	fmt.Fprintf(os.Stderr, "built %s: %d records in from %s\n", *out, n, *in)
	return nil
}

// runInfo prints the manifest and, with -blocks, the per-block footer
// stats that pruned scans rely on.
func runInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobistore info", flag.ContinueOnError)
	blocks := fs.Bool("blocks", false, "also list per-block stats")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info: want exactly one store path")
	}
	s, err := store.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer s.Close()
	man := s.Manifest()
	fmt.Fprintf(stdout, "store:   %s (format %s v%d)\n", fs.Arg(0), man.Format, man.Version)
	fmt.Fprintf(stdout, "users:   %d\n", man.Users)
	fmt.Fprintf(stdout, "points:  %d\n", man.Points)
	if from, to, ok := s.TimeSpan(); ok {
		fmt.Fprintf(stdout, "time:    %s .. %s\n", from.Format(time.RFC3339), to.Format(time.RFC3339))
		fmt.Fprintf(stdout, "bbox:    %s\n", s.Bounds())
	}
	fmt.Fprintf(stdout, "shards:  %d\n", man.Shards)
	fmt.Fprintf(stdout, "gens:    %d\n", man.Generations)
	for _, si := range man.Segments {
		fmt.Fprintf(stdout, "  %s: shard %d gen %d, %d blocks, %d users, %d points\n",
			si.File, si.Shard, si.Gen, si.Blocks, si.Users, si.Points)
	}
	if *blocks {
		return s.Scan(context.Background(), store.ScanOptions{}, func(user string, pts []trace.Point) error {
			fmt.Fprintf(stdout, "  block user=%s points=%d %s..%s\n", user, len(pts),
				pts[0].Time.Format(time.RFC3339), pts[len(pts)-1].Time.Format(time.RFC3339))
			return nil
		})
	}
	return nil
}

// runCat streams matching records out of a store as CSV or JSONL.
func runCat(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobistore cat", flag.ContinueOnError)
	var (
		format  = fs.String("format", "csv", "output format: csv or jsonl")
		users   = fs.String("users", "", "comma-separated user filter")
		bbox    = fs.String("bbox", "", "minLat,minLng,maxLat,maxLng bounding-box filter")
		from    = fs.String("from", "", "keep points at or after this time (RFC 3339 or Unix seconds)")
		to      = fs.String("to", "", "keep points at or before this time (RFC 3339 or Unix seconds)")
		verbose = cliutil.Verbose(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cat: want exactly one store path")
	}
	opts, err := cliutil.ScanFilters(*bbox, *from, *to, *users)
	if err != nil {
		return fmt.Errorf("cat: %w", err)
	}
	opts.Workers = 1 // one worker: deterministic output order
	var st store.ScanStats
	if *verbose {
		opts.Stats = &st
		defer func() {
			fmt.Fprintf(os.Stderr, "cat: scanned %d points; pruned %d/%d blocks, decoded %d (%d cache hits)\n",
				st.Points, st.BlocksPruned, st.BlocksTotal, st.BlocksDecoded, st.CacheHits)
		}()
	}

	s, err := store.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer s.Close()

	switch *format {
	case "csv":
		fmt.Fprintln(stdout, "user,time,lat,lng")
		return s.Scan(context.Background(), opts, func(user string, pts []trace.Point) error {
			for _, p := range pts {
				fmt.Fprintf(stdout, "%s,%s,%s,%s\n", user,
					p.Time.UTC().Format(time.RFC3339Nano),
					strconv.FormatFloat(p.Lat, 'f', -1, 64),
					strconv.FormatFloat(p.Lng, 'f', -1, 64))
			}
			return nil
		})
	case "jsonl":
		return s.Scan(context.Background(), opts, func(user string, pts []trace.Point) error {
			for _, p := range pts {
				if err := traceio.WriteJSONLRecord(stdout, user, p); err != nil {
					return err
				}
			}
			return nil
		})
	default:
		return fmt.Errorf("cat: unknown format %q (want csv or jsonl)", *format)
	}
}

// runCompact rewrites a store as a streaming per-shard merge
// (store.Compact): each user's fragments are assembled and rewritten
// trace-by-trace, so compacting never needs more memory than the
// fragments of the users in flight — not the dataset.
func runCompact(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobistore compact", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "input store; required")
		out     = fs.String("out", "", "output store; required")
		shards  = fs.Int("shards", 0, "segment count of the output (0 keeps the input's)")
		block   = fs.Int("block", 4096, "max points per block")
		workers = fs.Int("workers", 0, "parallel segment scanners (0 = one per CPU; 1 gives a byte-deterministic output)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("compact: -in and -out are required")
	}
	if store.SamePath(*in, *out) {
		// Creating the output would unlink the input's segments before
		// they are read; a mid-run failure would lose the dataset.
		return fmt.Errorf("compact: cannot rewrite %s in place; write to a new store and move it", *in)
	}
	s, err := store.Open(*in)
	if err != nil {
		return err
	}
	defer s.Close()
	if *shards == 0 {
		*shards = s.Manifest().Shards
	}
	w, err := store.Create(*out, store.Options{Shards: *shards, BlockPoints: *block, Overwrite: true})
	if err != nil {
		return err
	}
	ctx := par.WithWorkers(context.Background(), *workers)
	st, err := store.Compact(ctx, s, w)
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	c, err := store.Open(*out)
	if err != nil {
		return err
	}
	defer c.Close()
	outBlocks := 0
	for _, si := range c.Manifest().Segments {
		outBlocks += si.Blocks
	}
	fmt.Fprintf(stdout, "compacted %s (%d blocks) -> %s (%d blocks), %d users, %d points (peak %d users buffered)\n",
		*in, st.BlocksIn, *out, outBlocks, st.Users, st.Points, st.PeakBufferedUsers)
	return nil
}

// runMerge joins N per-node stores — typically the .mstore sinks of a
// mobiserve fleet behind mobirouter — into one store, streaming
// trace-by-trace (store.Merge): the dataset is never loaded. The
// inputs must hold disjoint users; hash routing guarantees that for
// fleet sinks, and a violation surfaces as a duplicate-user error
// rather than a silent bad merge.
func runMerge(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobistore merge", flag.ContinueOnError)
	var (
		out     = fs.String("out", "", "output store; required")
		shards  = fs.Int("shards", 0, "segment count of the output (0 keeps the first input's)")
		block   = fs.Int("block", 4096, "max points per block")
		workers = fs.Int("workers", 0, "parallel segment scanners (0 = one per CPU; 1 gives a byte-deterministic output)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("merge: -out is required")
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("merge: want at least one input store path")
	}
	var srcs []*store.Store
	defer func() {
		for _, s := range srcs {
			s.Close()
		}
	}()
	for _, in := range fs.Args() {
		if store.SamePath(in, *out) {
			// Creating the output would unlink this input's segments
			// before they are read; a mid-run failure would lose data.
			return fmt.Errorf("merge: cannot merge %s into itself; write to a new store and move it", in)
		}
		s, err := store.Open(in)
		if err != nil {
			return err
		}
		srcs = append(srcs, s)
	}
	if *shards == 0 {
		*shards = srcs[0].Manifest().Shards
	}
	w, err := store.Create(*out, store.Options{Shards: *shards, BlockPoints: *block, Overwrite: true})
	if err != nil {
		return err
	}
	ctx := par.WithWorkers(context.Background(), *workers)
	st, err := store.Merge(ctx, srcs, w)
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "merged %d stores (%d blocks) -> %s, %d users, %d points\n",
		st.Sources, st.BlocksIn, *out, st.Users, st.Points)
	return nil
}

// diffRow is one user's divergence between the two stores.
type diffRow struct {
	user              string
	origPts, anonPts  int
	meanDisp, maxDisp float64
}

// runDiff aligns two stores user by user and prints how far each
// user's anonymized trace strays from the original path. The scan is
// paired and streaming: at any moment only the traces of the users in
// flight are in memory.
func runDiff(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobistore diff", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "parallel segment scanners (0 = one per CPU)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want exactly two store paths (original, anonymized)")
	}
	orig, err := store.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer orig.Close()
	anon, err := store.Open(fs.Arg(1))
	if err != nil {
		return err
	}
	defer anon.Close()

	var (
		mu   sync.Mutex
		rows []diffRow
	)
	st, err := store.ScanTracesPaired(context.Background(), orig, anon,
		store.ScanOptions{Workers: *workers}, func(o, a *trace.Trace) error {
			if o == nil || a == nil {
				return nil // one-sided users are reported from the stats
			}
			row := diffRow{user: o.User, origPts: o.Len(), anonPts: a.Len()}
			acc := metrics.NewDistortionAcc()
			if err := acc.AddPair(o, a); err != nil {
				return fmt.Errorf("user %s: %w", o.User, err)
			}
			sum := acc.Summary()
			row.meanDisp, row.maxDisp = sum.Mean, sum.Max
			mu.Lock()
			rows = append(rows, row)
			mu.Unlock()
			return nil
		})
	if err != nil {
		return err
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].user < rows[j].user })
	fmt.Fprintf(stdout, "%-20s %10s %10s %12s %12s\n", "user", "orig-pts", "anon-pts", "mean-disp-m", "max-disp-m")
	var totOrig, totAnon int
	var meanSum float64
	maxDisp := 0.0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-20s %10d %10d %12.1f %12.1f\n", r.user, r.origPts, r.anonPts, r.meanDisp, r.maxDisp)
		totOrig += r.origPts
		totAnon += r.anonPts
		meanSum += r.meanDisp
		if r.maxDisp > maxDisp {
			maxDisp = r.maxDisp
		}
	}
	fmt.Fprintf(stdout, "paired %d users (%d -> %d points)", len(rows), totOrig, totAnon)
	if len(rows) > 0 {
		fmt.Fprintf(stdout, ", mean displacement %.1f m, max %.1f m", meanSum/float64(len(rows)), maxDisp)
	}
	fmt.Fprintln(stdout)
	for _, u := range st.OnlyOrig {
		fmt.Fprintf(stdout, "only in %s: %s\n", fs.Arg(0), u)
	}
	for _, u := range st.OnlyAnon {
		fmt.Fprintf(stdout, "only in %s: %s\n", fs.Arg(1), u)
	}
	return nil
}
