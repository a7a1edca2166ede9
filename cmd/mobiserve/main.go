// Command mobiserve is the online anonymization service: it ingests an
// unbounded stream of location updates over HTTP, pushes them through
// the sharded streaming engine (internal/stream) running any
// streaming-capable mechanism from the mobipriv registry, and republishes
// the anonymized stream — the serving-path counterpart of the batch
// mobianon tool. The service is internal/serve/worker; this command
// parses its flags.
//
//	mobiserve -addr :8080 -mechanism "geoi(0.01)" -shards 8
//
// Endpoints:
//
//	POST /ingest   NDJSON {"user":..,"t":..,"lat":..,"lng":..} (or CSV
//	               with Content-Type: text/csv); responds with the
//	               number of accepted points. Backpressure: the request
//	               blocks while shard queues are full.
//	POST /flush    finalize and evict every open trace, forcing out all
//	               withheld points (end of a replay).
//	GET  /out      stream anonymized output as NDJSON until the client
//	               disconnects or shutdown begins (points anonymized
//	               after connect; the final drain goes to -sink only).
//	GET  /stats    JSON: per-shard queue depth and user counts,
//	               points/sec, evictions, risk-monitor counts. The
//	               values are a view over the same metrics registry
//	               /metrics serves, so the two cannot disagree.
//	GET  /metrics  Prometheus text exposition of every counter, gauge
//	               and latency histogram (engine, sinks, risk monitor,
//	               per-route HTTP latency).
//	GET  /risk     JSON: per-user privacy-risk state from the live
//	               monitor (internal/risk) watching the anonymized
//	               output — users whose published points still show a
//	               POI recurring across distinct days are flagged.
//	               ?user=U returns one user (404 when unobserved).
//	POST /risk/reset  drop monitor state (?user=U for one user).
//	GET  /debug/traces  flight recorder (JSON; ?format=text for the
//	               human zpage): recent sampled request traces with
//	               queue-wait/process/sink decomposition, the slowest
//	               trace per latency bucket, per-span-kind summaries.
//	               Sampling is governed by -trace-sample (deterministic
//	               per trace ID); -trace-slow logs slow roots.
//
// With -pprof the standard net/http/pprof debug endpoints are mounted
// under /debug/pprof/ (opt-in: profiling handlers on a public address
// are a foot-gun, so they are off by default).
//
// Quickstart against a generated dataset:
//
//	mobigen -out day.jsonl -format jsonl
//	mobiserve -addr :8080 -mechanism "promesse(epsilon=100)" -sink anon.jsonl &
//	curl -s -XPOST --data-binary @day.jsonl localhost:8080/ingest
//	curl -s -XPOST localhost:8080/flush
//	curl -s localhost:8080/stats
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mobipriv"
	"mobipriv/internal/cliutil"
	"mobipriv/internal/serve"
	"mobipriv/internal/serve/worker"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mobiserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mobiserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		mech      = fs.String("mechanism", "promesse", "streaming-capable mechanism spec (see -list-streaming)")
		shards    = fs.Int("shards", 8, "per-user state partitions (one goroutine each)")
		queue     = fs.Int("queue", 64, "per-shard queue depth in batches (backpressure bound)")
		batch     = fs.Int("batch", 256, "ingest batch size in points")
		ttl       = fs.Duration("ttl", 10*time.Minute, "evict users idle longer than this (0 disables)")
		sink      = fs.String("sink", "", "append anonymized output to this NDJSON file, or to a native store when the path ends in .mstore (an existing store is extended across restarts)")
		sinkFresh = fs.Bool("sink-fresh", false, "refuse to extend an existing .mstore sink: the path must not already hold a store")
		pseudonym = fs.String("pseudonym", "", "relabel output users with this pseudonym prefix")
		seed      = fs.Int64("seed", 1, "pseudonym seed")
		riskDays  = fs.Int("risk-min-days", 2, "flag users whose output shows a POI recurring on this many distinct days (0 disables the monitor)")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof debug endpoints under /debug/pprof/")
		list      = fs.Bool("list-streaming", false, "list streaming-capable mechanisms and exit")
		trSample  = fs.Float64("trace-sample", 1, "fraction of requests traced, deterministic per trace ID (0 disables span recording)")
		trSlow    = fs.Duration("trace-slow", 0, "log sampled root spans slower than this (0 disables)")
		verbose   = cliutil.Verbose(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println(strings.Join(mobipriv.StreamingMechanisms(), "\n"))
		return nil
	}

	srv, err := worker.New(worker.Config{
		Spec:        *mech,
		Shards:      *shards,
		Queue:       *queue,
		Batch:       *batch,
		TTL:         *ttl,
		Pseudonym:   *pseudonym,
		Seed:        *seed,
		RiskMinDays: *riskDays,
		Pprof:       *pprofOn,
		TraceSample: *trSample,
		TraceSlow:   *trSlow,
		Sink:        *sink,
		SinkFresh:   *sinkFresh,
	})
	if err != nil {
		return err
	}
	log.Printf("mobiserve: %s serving %s", *addr, srv)
	err = serve.ListenAndServe(*addr, srv.Handler(), srv.Close)
	if *verbose {
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "mobiserve: served %d points in, %d out, %d evicted users, %d backpressure stalls, %d sink failures\n",
			st.In, st.Out, st.Evicted, st.Stalls, st.SinkFails)
	}
	return err
}
