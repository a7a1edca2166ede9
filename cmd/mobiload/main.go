// Command mobiload is the deterministic load driver for mobiserve: it
// replays seeded synthetic traffic (or an existing .mstore dataset)
// against a running instance at a target rate and prints the serving
// performance — points/s, p50/p95/p99 ingest latency, error counts —
// followed by the server's own latency quantiles from /stats (HTTP
// routes and the engine's queue-wait, process and sink stages).
//
//	mobiserve -addr :8080 -mechanism "geoi(0.01)" &
//	mobiload -target http://localhost:8080 -users 200 -days 1
//
// The traffic is deterministic for a fixed -seed and shape: the summary
// prints a traffic checksum, so two runs of the same command send
// byte-identical point streams and are directly comparable. Users are
// partitioned across sender workers by the same hash the server shards
// by, preserving each user's chronological order at any -workers. The
// repository's recorded performance comes from the benchmark declared
// in BENCHMARK.json (bench/README.md), not from this tool.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mobipriv/internal/cliutil"
	"mobipriv/internal/load"
	"mobipriv/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobiload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mobiload", flag.ContinueOnError)
	var (
		target    = fs.String("target", "http://localhost:8080", "base URL of the mobiserve instance")
		storePath = fs.String("store", "", "replay this .mstore dataset instead of synthesizing traffic")
		users     = fs.Int("users", 50, "synthetic users")
		days      = fs.Int("days", 1, "synthetic days per user")
		sampling  = fs.Duration("sampling", 60*time.Second, "synthetic sampling interval")
		seed      = fs.Int64("seed", 1, "traffic seed (fixed seed = byte-identical traffic)")
		rate      = fs.Float64("rate", 0, "target send rate in points/s (0 = as fast as accepted)")
		batch     = fs.Int("batch", 256, "points per ingest request")
		workers   = fs.Int("workers", 0, "concurrent senders (0 = NumCPU, capped at 8)")
		maxPoints = fs.Int("max-points", 0, "truncate traffic to this many points (0 = all)")
		noFlush   = fs.Bool("no-flush", false, "skip the POST /flush after the traffic")
		verbose   = cliutil.Verbose(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := load.Config{
		Target:    strings.TrimRight(*target, "/"),
		Store:     *storePath,
		Users:     *users,
		Days:      *days,
		Sampling:  *sampling,
		Seed:      *seed,
		Rate:      *rate,
		Batch:     *batch,
		Workers:   *workers,
		MaxPoints: *maxPoints,
		Flush:     !*noFlush,
	}
	res, err := load.Run(ctx, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "sent %d points in %.2fs: %.0f points/s, ingest p50 %.2fms p95 %.2fms p99 %.2fms, %d errors (checksum %s)\n",
		res.Points, res.Seconds, res.PointsPerS,
		res.IngestP50ms, res.IngestP95ms, res.IngestP99ms,
		res.Errors, res.TrafficChecksum)
	if err := dumpLatency(ctx, cfg.Target, stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mobiload: fetch /stats: %v\n", err)
	}
	if *verbose {
		if err := dumpMetrics(ctx, cfg.Target, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "mobiload: fetch /metrics: %v\n", err)
		}
	}
	return nil
}

// client reads the server's /stats and /metrics after the run.
var client = &http.Client{Timeout: 10 * time.Second}

// dumpLatency prints the server's per-histogram quantile summaries
// from /stats — every latency series (HTTP routes, engine queue-wait /
// process / sink) that recorded at least one sample, as one line of
// p50/p95/p99. The histograms are cumulative, so against a fresh
// server they describe exactly this run's traffic; a route the run
// never called has nothing to summarize and is left out.
func dumpLatency(ctx context.Context, target string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/stats", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var st struct {
		Latency []obs.HistogramSnapshot `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	for _, h := range st.Latency {
		if h.Count == 0 {
			continue
		}
		name := h.Name
		if h.Labels != "" {
			name += "{" + h.Labels + "}"
		}
		fmt.Fprintf(w, "%s: n=%d p50 %.2fms p95 %.2fms p99 %.2fms\n",
			name, h.Count, h.P50*1e3, h.P95*1e3, h.P99*1e3)
	}
	return nil
}

// dumpMetrics fetches the server's /metrics after the run — the
// server-side view of the load just applied.
func dumpMetrics(ctx context.Context, target string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
