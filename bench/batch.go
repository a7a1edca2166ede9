package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mobipriv"
	"mobipriv/internal/metrics"
	"mobipriv/internal/risk"
	"mobipriv/internal/stats"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

// The store workloads: no HTTP, no JSON, no engine. store-anon runs
// mobianon store to store over and over; store-eval runs mobieval over
// a pair of stores and the ground-truth stays. Both use the store and
// mechanism layers the serving workloads use, differently: block
// reads, trace gather and whole-trace Add in place of per-point
// Append.

// toolRuns is the outcome of running one tool repeatedly.
type toolRuns struct {
	walls  []float64 // seconds, one per run
	rssMB  []float64 // peak resident set, one per run
	cpu    time.Duration
	failed int
}

func (t *toolRuns) add(u usage) {
	t.walls = append(t.walls, u.wall.Seconds())
	t.rssMB = append(t.rssMB, u.rssMB)
	t.cpu += u.cpu
	if u.failed {
		t.failed++
	}
}

// score reports the end-to-end metrics of repeated runs over points
// input points each.
func (t *toolRuns) score(r *result, points int, setups []float64) {
	n := len(t.walls)
	r.attempted += n
	r.failed += t.failed
	r.set("points_per_s", float64(points)/stats.Median(t.walls))
	r.set("cpu_us_per_point", us(t.cpu)/float64(n*points))
	r.set("p50_ms", stats.Median(t.walls)*1e3)
	r.set("peak_rss_mb", stats.Median(t.rssMB))
	r.set("setup_s", stats.Median(setups))
	var total float64
	for _, w := range t.walls {
		total += w
	}
	r.set("points_per_s_mean", float64(n*points)/total)
	r.set("load.requests", float64(n))
}

// measuredSeconds is how long the tool loop of a store workload runs;
// a traced run leaves the other half to the traced replay.
func (b *bench) measuredSeconds() time.Duration {
	s := b.seconds
	if b.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// repeatSetup runs setup setupRepeats times, each in a fresh work
// directory, keeps the last and returns every set-up's duration.
func (b *bench) repeatSetup(w *workload, setup func(dir string) error) (dir string, seconds []float64, err error) {
	for i := range setupRepeats {
		if dir != "" {
			os.RemoveAll(dir)
		}
		if dir, err = b.runDir(w, i); err != nil {
			return "", nil, err
		}
		start := time.Now()
		if err = setup(dir); err != nil {
			os.RemoveAll(dir)
			return "", nil, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return dir, seconds, nil
}

// anonymizeStore runs the workload's mechanism store to store
// in-process, as mobianon's store-native path does.
func anonymizeStore(ctx context.Context, w *workload, inPath, outPath string, workers int) (*mobipriv.StoreRunStats, time.Duration, error) {
	m, err := mobipriv.FromSpec(w.mechanism)
	if err != nil {
		return nil, 0, err
	}
	in, err := store.Open(inPath)
	if err != nil {
		return nil, 0, err
	}
	defer in.Close()
	out, err := store.Create(outPath, store.Options{Shards: in.Manifest().Shards})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	stats, err := mobipriv.NewRunner(mobipriv.WithWorkers(workers)).RunStore(ctx, in, out, m)
	if err != nil {
		return nil, 0, err
	}
	if err := out.Close(); err != nil {
		return nil, 0, err
	}
	return stats, time.Since(start), nil
}

func (b *bench) runAnon(ctx context.Context, w *workload, r *result) error {
	var points int
	dir, setups, err := b.repeatSetup(w, func(dir string) error {
		day, _, err := baseDay(w, b.seed, b.scale)
		if err != nil {
			return err
		}
		points = day.TotalPoints()
		return store.WriteDataset(filepath.Join(dir, "in.mstore"), day, store.Options{})
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	inPath := filepath.Join(dir, "in.mstore")
	workers := runtime.NumCPU()

	var runs toolRuns
	var outs []string
	for start := time.Now(); len(outs) < 3 || time.Since(start) < b.measuredSeconds(); {
		out := filepath.Join(dir, fmt.Sprintf("out%d.mstore", len(outs)))
		_, u, err := runCLI(ctx, dir, b.bin("mobianon"), "-in", inPath, "-out", out,
			"-mechanism", w.mechanism, "-workers", strconv.Itoa(workers))
		if err != nil {
			return err
		}
		runs.add(u)
		outs = append(outs, out)
	}
	runs.score(r, points, setups)

	// Correctness: every output equals what Runner.RunStore produces
	// in-process.
	refPath := filepath.Join(dir, "reference.mstore")
	stats, wall, err := anonymizeStore(ctx, w, inPath, refPath, workers)
	if err != nil {
		return err
	}
	want, err := digestStores(ctx, refPath)
	if err != nil {
		return err
	}
	for i, out := range outs {
		got, err := digestStores(ctx, out)
		if err != nil {
			return err
		}
		r.check(fmt.Sprintf("mobianon output %d equals Runner.RunStore's", i), got == want,
			"output %+v, reference %+v", got, want)
	}
	r.check("RunStore read every input point", stats.Points == int64(points),
		"input %d, read %d", points, stats.Points)
	if !b.trace {
		return nil
	}
	r.set("runner.runstore_ns_per_point", float64(wall)/float64(points))
	r.set("runner.peak_inflight", float64(stats.PeakInFlight))
	return b.traceAnon(ctx, w, inPath, dir, want, r)
}

// traceAnon replays the store-native run serially with spans: one scan
// whose children are the per-trace mechanism and Add calls.
func (b *bench) traceAnon(ctx context.Context, w *workload, inPath, dir string, want digest, r *result) error {
	m, err := mobipriv.FromSpec(w.mechanism)
	if err != nil {
		return err
	}
	perTrace, ok := mobipriv.AsPerTrace(m)
	if !ok {
		return fmt.Errorf("%s cannot run per trace", w.mechanism)
	}
	in, err := store.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()

	pass := func(path string, rec *recorder) (store.ScanStats, countingFS, time.Duration, error) {
		var scan store.ScanStats
		var fs countingFS
		out, err := store.Create(path, store.Options{Shards: in.Manifest().Shards, FS: &fs, Overwrite: true})
		if err != nil {
			return scan, fs, 0, err
		}
		start := time.Now()
		root := rec.begin(1, 0, "store.scan")
		err = in.ScanTraces(ctx, store.ScanOptions{Workers: 1, NoCache: true, Stats: &scan},
			func(tr *trace.Trace) error {
				t := rec.begin(1, root, "runner.trace")
				id := rec.begin(1, t, "mechanism.pertrace")
				res, err := perTrace(ctx, tr)
				rec.end(id, tr.Len())
				if err != nil {
					return err
				}
				if res != nil {
					id = rec.begin(1, t, "store.add")
					err = out.Add(res)
					rec.end(id, res.Len())
				}
				rec.end(t, tr.Len())
				return err
			})
		rec.end(root, int(scan.Points))
		if err != nil {
			return scan, fs, 0, err
		}
		id := rec.begin(2, 0, "store.add")
		err = out.Close()
		rec.end(id, 0)
		return scan, fs, time.Since(start), err
	}

	rec := newRecorder()
	tracedPath := filepath.Join(dir, "traced.mstore")
	scan, fs, on, err := pass(tracedPath, rec)
	if err != nil {
		return err
	}
	// The spans' own cost, each side scored by its fastest pass (see
	// traceServing).
	off := time.Duration(math.MaxInt64)
	for range 2 {
		_, _, wall, err := pass(filepath.Join(dir, "untraced.mstore"), nil)
		if err != nil {
			return err
		}
		off = min(off, wall)
		if _, _, wall, err = pass(filepath.Join(dir, "retraced.mstore"), newRecorder()); err != nil {
			return err
		}
		on = min(on, wall)
	}
	got, err := digestStores(ctx, tracedPath)
	if err != nil {
		return err
	}
	r.check("traced replay equals Runner.RunStore's output", got == want,
		"replay %+v, reference %+v", got, want)

	self := rec.selfTimes()
	r.set("store.scan_ns_per_point", self["store.scan"].perPoint())
	r.set("mechanism.pertrace_ns_per_point", self["mechanism.pertrace"].perPoint())
	r.set("store.add_ns_per_point", self["store.add"].perPoint())
	r.set("mechanism.out_per_in", float64(got.points)/float64(scan.Points))
	r.set("store.batch_bytes_per_point", float64(fs.bytes)/float64(got.points))
	r.set("store.syncs", float64(fs.syncs))
	r.set("store.write_ops", float64(fs.writes))
	r.set("store.blocks_decoded", float64(scan.BlocksDecoded))
	r.set("store.cache_hits", float64(scan.CacheHits))
	r.set("bench.serial_points_per_s", float64(scan.Points)/off.Seconds())
	r.set("bench.trace_overhead_share", on.Seconds()/off.Seconds()-1)
	return rec.write(filepath.Join(b.outdir, "trace-"+w.name+".json"))
}

// evalOptions are mobieval's defaults (-cell 500 -queries 100 -seed 1)
// with the POI attack the -stays flag enables.
func evalOptions(stays []synth.Stay, attack bool) metrics.EvalOptions {
	opts := metrics.EvalOptions{CellSize: 500, Queries: 100, Seed: 1}
	if attack {
		cfg := risk.DefaultAttackConfig()
		opts.Attack = &metrics.AttackOptions{Truth: risk.TruthPOIs(stays, cfg.MatchRadius), Config: cfg}
	}
	return opts
}

// writeStays writes the ground truth in mobigen's stays CSV format,
// the one mobieval -stays reads.
func writeStays(path string, stays []synth.Stay) error {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write([]string{"user", "lat", "lng", "enter", "leave"})
	for _, s := range stays {
		cw.Write([]string{
			s.User,
			strconv.FormatFloat(s.Center.Lat, 'f', -1, 64),
			strconv.FormatFloat(s.Center.Lng, 'f', -1, 64),
			s.Enter.UTC().Format(time.RFC3339),
			s.Leave.UTC().Format(time.RFC3339),
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func (b *bench) runEval(ctx context.Context, w *workload, r *result) error {
	var points int
	var stays []synth.Stay
	workers := runtime.NumCPU()
	dir, setups, err := b.repeatSetup(w, func(dir string) error {
		day, st, err := baseDay(w, b.seed, b.scale)
		if err != nil {
			return err
		}
		points, stays = day.TotalPoints(), st
		inPath := filepath.Join(dir, "in.mstore")
		if err := store.WriteDataset(inPath, day, store.Options{}); err != nil {
			return err
		}
		if err := writeStays(filepath.Join(dir, "stays.csv"), st); err != nil {
			return err
		}
		_, _, err = anonymizeStore(ctx, w, inPath, filepath.Join(dir, "anon.mstore"), workers)
		return err
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	inPath, anonPath := filepath.Join(dir, "in.mstore"), filepath.Join(dir, "anon.mstore")

	var runs toolRuns
	var reports [][]byte
	for start := time.Now(); len(reports) < 3 || time.Since(start) < b.measuredSeconds(); {
		out, u, err := runCLI(ctx, dir, b.bin("mobieval"), "-orig", inPath, "-anon", anonPath,
			"-stays", filepath.Join(dir, "stays.csv"), "-workers", strconv.Itoa(workers))
		if err != nil {
			return err
		}
		runs.add(u)
		reports = append(reports, out)
	}
	runs.score(r, points, setups)

	// Correctness: every report is, byte for byte, the text of the
	// report EvalStore produces in-process.
	orig, err := store.Open(inPath)
	if err != nil {
		return err
	}
	defer orig.Close()
	anonS, err := store.Open(anonPath)
	if err != nil {
		return err
	}
	defer anonS.Close()
	opts := evalOptions(stays, true)
	opts.Scan.Workers = workers
	rep, _, err := metrics.EvalStore(ctx, orig, anonS, opts)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := rep.WriteText(&want); err != nil {
		return err
	}
	for i, got := range reports {
		r.check(fmt.Sprintf("mobieval report %d equals EvalStore's", i), bytes.Equal(got, want.Bytes()),
			"report:\n%s\nreference:\n%s", got, want.Bytes())
	}
	r.check("EvalStore read every original point", rep.OrigPoints == int64(points),
		"input %d, read %d", points, rep.OrigPoints)
	if !b.trace {
		return nil
	}
	return b.traceEval(ctx, w, orig, anonS, stays, want.Bytes(), r)
}

// traceEval replays the store-native evaluation serially with spans:
// one paired scan whose children fold each pair into the accumulator
// mobieval -stays uses. The POI attack's share is timed by feeding a
// second attack accumulator the same published traces.
func (b *bench) traceEval(ctx context.Context, w *workload, orig, anonS *store.Store, stays []synth.Stay, want []byte, r *result) error {
	opts := evalOptions(stays, true)
	opts.Bounds = orig.Bounds()
	var users []string
	// pass evaluates the listed users (all when nil).
	pass := func(rec *recorder, only []string) (*metrics.EvalAcc, *store.PairScanStats, time.Duration, error) {
		acc, err := metrics.NewEvalAcc(opts)
		if err != nil {
			return nil, nil, 0, err
		}
		attack, err := risk.NewAttackAcc(opts.Attack.Truth, opts.Attack.Config)
		if err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		root := rec.begin(1, 0, "store.paired_scan")
		in := 0
		stats, err := store.ScanTracesPaired(ctx, orig, anonS, store.ScanOptions{Workers: 1, NoCache: true, Users: only},
			func(o, a *trace.Trace) error {
				n := 0
				if o != nil {
					n = o.Len()
					if only == nil {
						users = append(users, o.User)
					}
				}
				in += n
				t := rec.begin(1, root, "metrics.pair")
				id := rec.begin(1, t, "metrics.eval")
				err := acc.AddPair(o, a)
				rec.end(id, n)
				if a != nil {
					id = rec.begin(1, t, "metrics.attack")
					attack.AddTrace(a)
					rec.end(id, n)
				}
				rec.end(t, n)
				return err
			})
		rec.end(root, in)
		if err != nil {
			return nil, nil, 0, err
		}
		// The parallel evaluation merges one accumulator per worker into
		// an empty root; here there is one.
		merged, err := metrics.NewEvalAcc(opts)
		if err != nil {
			return nil, nil, 0, err
		}
		id := rec.begin(2, 0, "metrics.merge")
		merged.Merge(acc)
		rec.end(id, 0)
		return merged, stats, time.Since(start), nil
	}

	rec := newRecorder()
	merged, stats, wall, err := pass(rec, nil)
	if err != nil {
		return err
	}
	rep, err := merged.Report()
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := rep.WriteText(&got); err != nil {
		return err
	}
	r.check("traced replay's report equals EvalStore's", bytes.Equal(got.Bytes(), want),
		"replay:\n%s\nreference:\n%s", got.Bytes(), want)

	// The spans' own cost, over a sixth of the users, each side scored by
	// its fastest pass (see traceServing).
	some := users[:max(1, len(users)/6)]
	on, off := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 2 {
		_, _, t, err := pass(nil, some)
		if err != nil {
			return err
		}
		off = min(off, t)
		if _, _, t, err = pass(newRecorder(), some); err != nil {
			return err
		}
		on = min(on, t)
	}

	self := rec.selfTimes()
	attackNs := self["metrics.attack"].perPoint()
	r.set("store.paired_scan_ns_per_point", self["store.paired_scan"].perPoint())
	r.set("metrics.eval_ns_per_point", self["metrics.eval"].perPoint()-attackNs)
	r.set("metrics.attack_ns_per_point", attackNs)
	r.set("metrics.merge_ns", float64(self["metrics.merge"].selfNs))
	r.set("mechanism.out_per_in", float64(rep.AnonPoints)/float64(rep.OrigPoints))
	r.set("store.blocks_decoded", float64(stats.Orig.BlocksDecoded+stats.Anon.BlocksDecoded))
	r.set("store.cache_hits", float64(stats.Orig.CacheHits+stats.Anon.CacheHits))
	// The replay runs the attack twice; the serial rate takes the second
	// one's time back out.
	attackTime := time.Duration(self["metrics.attack"].selfNs)
	r.set("bench.serial_points_per_s", float64(rep.OrigPoints)/(wall-attackTime).Seconds())
	r.set("bench.trace_overhead_share", on.Seconds()/off.Seconds()-1)
	return rec.write(filepath.Join(b.outdir, "trace-"+w.name+".json"))
}
