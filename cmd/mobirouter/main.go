// Command mobirouter fronts a fleet of mobiserve workers with the
// single-node ingest API: clients POST to one address, and the router
// pins each user to one worker via the shared placement contract
// (splitmix64(fnv64a(user)) mod nodes — the same hash the stream
// engine shards by), batches records per destination node, retries
// transient upstream failures with backoff, and aggregates the fleet's
// /stats into the single-node wire shape. See internal/router for the
// placement and aggregation contracts.
//
//	mobirouter -addr :8079 -nodes localhost:8081,localhost:8082,localhost:8083
//
// Endpoints (mirroring mobiserve):
//
//	POST /ingest   NDJSON or CSV, forwarded per-user to the owning
//	               node; responds with the accepted point count. An
//	               incoming traceparent is forwarded upstream and
//	               echoed on the response.
//	POST /flush    forwarded to every node; succeeds only if all do.
//	GET  /stats    fleet-aggregated stats: scalar counters summed,
//	               latency histograms merged exactly (sparse-bin
//	               snapshots), plus a per-node breakdown.
//	GET  /metrics  the router's own Prometheus series, per node:
//	               router_forwarded_points, router_upstream_errors,
//	               router_upstream_seconds.
//	GET  /healthz  probes every node; 503 naming dead nodes.
//
// A three-node recipe is in docs/CLI.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mobipriv/internal/router"
	"mobipriv/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mobirouter:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mobirouter", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", ":8079", "listen address")
		nodes   = fs.String("nodes", "", "comma-separated upstream mobiserve workers (host:port,...); order defines placement")
		batch   = fs.Int("batch", 256, "points buffered per node before an upstream POST")
		retries = fs.Int("retries", 2, "retries per failed upstream request")
		backoff = fs.Duration("retry-backoff", 50*time.Millisecond, "initial retry backoff (doubles per attempt)")
		timeout = fs.Duration("timeout", 30*time.Second, "per-upstream-request timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes == "" {
		return errors.New("-nodes is required (comma-separated host:port list)")
	}
	rt, err := router.New(router.Config{
		Nodes:        strings.Split(*nodes, ","),
		Batch:        *batch,
		Retries:      *retries,
		RetryBackoff: *backoff,
		Timeout:      *timeout,
	})
	if err != nil {
		return err
	}

	// Probe the fleet once at startup so a dead node is loud in the log
	// immediately, not on the first unlucky ingest. The router still
	// starts — the node may just not be up yet.
	if err := rt.Check(context.Background()); err != nil {
		log.Printf("mobirouter: fleet not healthy yet: %v", err)
	}
	log.Printf("mobirouter: %d nodes (%s) on %s endpoints: POST /ingest, POST /flush, GET /stats, GET /metrics, GET /healthz",
		len(rt.Nodes()), strings.Join(rt.Nodes(), " "), *addr)
	return serve.ListenAndServe(*addr, rt.Handler(), nil)
}
