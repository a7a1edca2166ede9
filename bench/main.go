// Command bench is the repository's one benchmark: it builds the
// shipped binaries, drives them as child processes over pinned,
// seed-derived traffic, checks what they produced against an
// in-process reference, and prints every metric BENCHMARK.json names.
// README.md has the command lines and the definition of each metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"

	"mobipriv/internal/stats"
)

const (
	// setupRepeats is how often a run sets up; setup_s is the median.
	setupRepeats = 3

	// satChunks is how many equal pieces of work the saturation phase is
	// scored in; points_per_s is their median rate.
	satChunks = 16
)

// bench holds one invocation's settings.
type bench struct {
	root    string  // checkout root: the directory holding cmd/ and bench/
	build   string  // where binaries, work files and outputs go
	outdir  string  // where trace-<workload>.json is written
	seed    int64   // traffic seed
	seconds float64 // measured time per run
	scale   float64 // shrinks the base days; results at scale != 1 are not comparable
	trace   bool    // traced run: per-layer metrics in place of end-to-end ones
	conns   int     // client connections = client GOMAXPROCS
	buildS  float64 // seconds spent building the binaries
}

func (b *bench) bin(name string) string { return filepath.Join(b.build, "bin", name) }

// runDir creates an empty work directory for one set-up of a run.
func (b *bench) runDir(w *workload, i int) (string, error) {
	dir := filepath.Join(b.build, "work", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), i))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// prepare resolves the directories, fixes the client's size and builds
// the binaries under test.
func (b *bench) prepare() error {
	root, err := filepath.Abs(b.root)
	if err != nil {
		return err
	}
	b.root = root
	if b.build == "" {
		b.build = filepath.Join(root, ".bench_build")
	}
	if b.outdir == "" {
		b.outdir = filepath.Join(b.build, "out")
	}
	for _, d := range []string{filepath.Join(b.build, "bin"), b.outdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	// One client process, as many connections as it has processors.
	b.conns = min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(b.conns)
	built, err := buildBinaries(b.root, filepath.Join(b.build, "bin"))
	b.buildS = built.Seconds()
	return err
}

// result collects one run's metrics and verdicts.
type result struct {
	workload  string
	metrics   map[string]float64
	attempted int // requests, tool runs and output checks
	failed    int
	notes     []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one output check; a failed one fails the run.
func (r *result) check(what string, ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note("FAILED: %s: %s", what, fmt.Sprintf(format, args...))
	}
}

// reported is the last line of a run: the object the driver reads.
type reported struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]reportedValue `json:"metrics"`
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the run as "workload metric value unit" lines followed
// by the JSON object. A traced run reports the per-layer metrics, an
// untraced one the end-to-end metrics.
func (r *result) print(b *bench) error {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	for _, n := range r.notes {
		fmt.Printf("%s # %s\n", r.workload, n)
	}
	fmt.Printf("%s # nproc %d, connections %d, seed %d, seconds %g, scale %g, attempted %d, failed %d\n",
		r.workload, runtime.NumCPU(), b.conns, b.seed, b.seconds, b.scale, r.attempted, r.failed)
	if b.scale != 1 {
		fmt.Printf("%s # scale %g: NOT comparable with full-scale results\n", r.workload, b.scale)
	}
	out := reported{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]reportedValue)}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, d.name, v)
		}
		fmt.Printf("%s %s %s %s\n", r.workload, d.name, fmtFloat(v), d.unit)
		out.Metrics[d.name] = reportedValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func fmtFloat(v float64) string { return fmt.Sprintf("%.6g", v) }

// runOnce runs one workload once.
func (b *bench) runOnce(ctx context.Context, w *workload) (*result, error) {
	r := &result{workload: w.name, metrics: make(map[string]float64)}
	var err error
	switch w.kind {
	case serving:
		err = b.runServing(ctx, w, r)
	case anon:
		err = b.runAnon(ctx, w, r)
	case eval:
		err = b.runEval(ctx, w, r)
	}
	if err != nil {
		return nil, err
	}
	r.set("bench.build_s", b.buildS)
	r.set("failed_share", float64(r.failed)/float64(r.attempted))
	return r, nil
}

func run() error {
	b := &bench{}
	var (
		names  = flag.String("workload", "all", "workloads to run: all, or a comma-separated list of names")
		trace  = flag.Int("trace", 0, "1 replays the inputs in-process with spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
		repeat = flag.Int("repeat", 1, "run each workload this many times and print median, quartiles and range of every metric (A/A mode)")
	)
	flag.StringVar(&b.root, "root", ".", "checkout root (the directory holding cmd/ and bench/)")
	flag.StringVar(&b.outdir, "outdir", "", "directory for trace-<workload>.json (default <root>/.bench_build/out)")
	flag.Int64Var(&b.seed, "seed", 1, "traffic seed: equal seeds give byte-identical traffic")
	flag.Float64Var(&b.seconds, "seconds", 15, "measured seconds per run")
	flag.Float64Var(&b.scale, "scale", 1, "shrink the base days to this share of their users (quick iteration; results are not comparable)")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if b.seconds <= 0 || b.scale <= 0 || *repeat < 1 {
		return errors.New("-seconds, -scale and -repeat must be positive")
	}
	b.trace = *trace != 0

	var todo []*workload
	if *names == "all" {
		todo = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w := findWorkload(n)
			if w == nil {
				return fmt.Errorf("unknown workload %q", n)
			}
			todo = append(todo, w)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killLive()
	if err := b.prepare(); err != nil {
		return err
	}

	failed := false
	for _, w := range todo {
		var runs []*result
		for range *repeat {
			r, err := b.runOnce(ctx, w)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			failed = failed || r.failed > 0
			runs = append(runs, r)
			if err := r.print(b); err != nil {
				return err
			}
		}
		if *repeat > 1 {
			printSpread(b, runs)
		}
	}
	if failed {
		return errors.New("output checks failed")
	}
	return nil
}

// printSpread summarises repeated runs of one workload, one metric per
// line, beside the metric's bound.
func printSpread(b *bench, runs []*result) {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	fmt.Printf("%s # %d runs: metric median q1 q3 iqr/median (max-min)/median bound\n", runs[0].workload, len(runs))
	for _, d := range defs {
		vs := make([]float64, len(runs))
		for i, r := range runs {
			vs[i] = r.metrics[d.name]
		}
		med := stats.Median(vs)
		q1, q3 := stats.Quantile(vs, 0.25), stats.Quantile(vs, 0.75)
		iqr, rng := 0.0, 0.0
		if med != 0 {
			iqr, rng = (q3-q1)/med, (slices.Max(vs)-slices.Min(vs))/med
		}
		fmt.Printf("%s # %s %s %s %s %.4f %.4f %g\n", runs[0].workload, d.name,
			fmtFloat(med), fmtFloat(q1), fmtFloat(q3), iqr, rng, d.bound)
	}
}

func main() {
	if err := run(); err != nil {
		killLive()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
