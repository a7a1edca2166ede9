package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobipriv/internal/load"
	"mobipriv/internal/metrics"
	"mobipriv/internal/router"
	"mobipriv/internal/serve/servetest"
	"mobipriv/internal/serve/worker"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// The multi-node equivalence wall: a fleet of mobiserve workers behind
// a mobirouter must be indistinguishable — byte for byte — from one
// worker serving everything. The (seed, user) determinism contract
// makes per-user output placement-independent, the shared placement
// contract (rng.Shard) pins each user to one worker, and store.Merge
// joins the per-node sinks; what these tests pin is that the whole
// chain composes: same users, same points, same bytes per trace, same
// evaluation report, whatever the fleet size.

const (
	mnSpec     = "geoi(epsilon=0.01,seed=7)"
	mnUsers    = 30
	mnDays     = 1
	mnSeed     = 5
	mnSampling = 2 * time.Minute
)

// mnWorker is one mobiserve worker with a .mstore sink.
type mnWorker struct {
	hs   *httptest.Server
	sink string
	stop func()
}

// startSinkWorker starts a worker whose output lands in a fresh .mstore
// sink; stop() shuts it down and commits the sink so it can be opened.
func startSinkWorker(t *testing.T, sink string) *mnWorker {
	t.Helper()
	_, hs, stop := servetest.Start(t, worker.Config{Spec: mnSpec, Shards: 4, Seed: 1, TraceSample: 1, Sink: sink, SinkFresh: true})
	return &mnWorker{hs: hs, sink: sink, stop: stop}
}

// mnRun is one replay's outcome: where the (merged) output store
// lives, and the load driver's scored result.
type mnRun struct {
	merged string
	res    *load.Result
}

// replayFleet starts n workers (n=0 means a single worker with no
// router in front), replays the fixed-seed traffic through the
// router, flushes, shuts the fleet down and merges the per-node sinks
// into one store.
func replayFleet(t *testing.T, dir string, n int) *mnRun {
	t.Helper()
	direct := n == 0
	if direct {
		n = 1
	}
	var workers []*mnWorker
	var urls []string
	for i := 0; i < n; i++ {
		w := startSinkWorker(t, filepath.Join(dir, fmt.Sprintf("node%d.mstore", i)))
		workers = append(workers, w)
		urls = append(urls, w.hs.URL)
	}

	target := workers[0].hs.URL
	if !direct {
		rt, err := router.New(router.Config{Nodes: urls, Batch: 128})
		if err != nil {
			t.Fatal(err)
		}
		rhs := httptest.NewServer(rt.Handler())
		defer rhs.Close()
		target = rhs.URL
	}

	res, err := load.Run(context.Background(), load.Config{
		Target:   target,
		Users:    mnUsers,
		Days:     mnDays,
		Sampling: mnSampling,
		Seed:     mnSeed,
		Workers:  4,
		Batch:    128,
		Flush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("replay had %d errors", res.Errors)
	}
	if res.Accepted != res.Points {
		t.Fatalf("accepted %d of %d points", res.Accepted, res.Points)
	}

	// Shut down (commits every sink), then join the fleet's output.
	for _, w := range workers {
		w.stop()
	}
	merged := workers[0].sink
	if len(workers) > 1 {
		var srcs []*store.Store
		for _, w := range workers {
			s, err := store.Open(w.sink)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			srcs = append(srcs, s)
		}
		merged = filepath.Join(dir, "merged.mstore")
		mw, err := store.Create(merged, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Merge(context.Background(), srcs, mw); err != nil {
			t.Fatal(err)
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return &mnRun{merged: merged, res: res}
}

// buildOrigStore writes the replay's input traffic (the same synthetic
// dataset load.Run derives from the seed) into a store, the "orig"
// side of the evaluation.
func buildOrigStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	scfg := synth.DefaultCommuterConfig()
	scfg.Seed = mnSeed
	scfg.Users = mnUsers
	scfg.Days = mnDays
	scfg.Sampling = mnSampling
	gen, err := synth.Commuters(scfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "orig.mstore")
	w, err := store.Create(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range gen.Dataset.Traces() {
		for _, p := range tr.Points {
			if err := w.Append(tr.User, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// traceBytes renders one trace as its canonical NDJSON bytes, the
// strictest equality two traces can have.
func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range tr.Points {
		if err := traceio.WriteJSONLRecord(&buf, tr.User, p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// assertSameDataset asserts got and want hold the same users with
// byte-identical traces.
func assertSameDataset(t *testing.T, label string, got, want *trace.Dataset) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d users, want %d", label, got.Len(), want.Len())
	}
	for _, wtr := range want.Traces() {
		gtr := got.ByUser(wtr.User)
		if gtr == nil {
			t.Fatalf("%s: user %s missing", label, wtr.User)
		}
		if !bytes.Equal(traceBytes(t, gtr), traceBytes(t, wtr)) {
			t.Fatalf("%s: user %s trace bytes differ (%d vs %d points)",
				label, wtr.User, gtr.Len(), wtr.Len())
		}
	}
}

// TestMultiNodeEquivalence is the cross-node equivalence wall: the
// same fixed-seed traffic replayed (a) straight into one worker,
// (b) through a router over one worker and (c) through a router over
// three workers must yield — after merging the per-node sinks — the
// same traffic checksum, byte-identical traces, and a bit-identical
// metrics.EvalStore report against the original dataset at every scan
// worker count. Run it under -race: the replay ingests concurrently
// (4 load workers) while the engine's shards and the router's per-node
// flushes run in parallel.
func TestMultiNodeEquivalence(t *testing.T) {
	orig := buildOrigStore(t, t.TempDir())
	defer orig.Close()

	baseline := replayFleet(t, t.TempDir(), 0)
	fleets := map[string]*mnRun{
		"router-1node":  replayFleet(t, t.TempDir(), 1),
		"router-3nodes": replayFleet(t, t.TempDir(), 3),
	}

	for label, run := range fleets {
		if run.res.TrafficChecksum != baseline.res.TrafficChecksum {
			t.Errorf("%s: traffic checksum %s, baseline %s",
				label, run.res.TrafficChecksum, baseline.res.TrafficChecksum)
		}
	}

	baseStore, err := store.Open(baseline.merged)
	if err != nil {
		t.Fatal(err)
	}
	defer baseStore.Close()
	baseD, err := baseStore.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if baseD.Len() != mnUsers {
		t.Fatalf("baseline store holds %d users, want %d", baseD.Len(), mnUsers)
	}

	// Reference report: single-node output evaluated with one scan
	// worker. Every fleet and every worker count must reproduce it.
	refReport, _, err := metrics.EvalStore(context.Background(), orig, baseStore, metrics.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(refReport)
	if err != nil {
		t.Fatal(err)
	}

	for label, run := range fleets {
		s, err := store.Open(run.merged)
		if err != nil {
			t.Fatal(err)
		}
		d, err := s.Load(context.Background())
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		assertSameDataset(t, label, d, baseD)

		for _, workers := range []int{1, 4, 16} {
			rep, _, err := metrics.EvalStore(context.Background(), orig, s, metrics.EvalOptions{
				Scan: store.ScanOptions{Workers: workers},
			})
			if err != nil {
				s.Close()
				t.Fatal(err)
			}
			got, err := json.Marshal(rep)
			if err != nil {
				s.Close()
				t.Fatal(err)
			}
			if !bytes.Equal(got, refJSON) {
				t.Errorf("%s at %d eval workers: report differs from single-node reference\ngot  %s\nwant %s",
					label, workers, got, refJSON)
			}
		}
		s.Close()
	}
}

// TestRouterStatsAggregation pins the fleet-wide /stats view after a
// replay: points_in sums to everything sent, the per-node breakdown
// accounts for every forwarded point, and the merged latency
// histograms keep the three stream_* decomposition series with counts
// covering the whole fleet.
func TestRouterStatsAggregation(t *testing.T) {
	dir := t.TempDir()
	var urls []string
	for i := 0; i < 3; i++ {
		w := startSinkWorker(t, filepath.Join(dir, fmt.Sprintf("n%d.mstore", i)))
		urls = append(urls, w.hs.URL)
	}
	rt, err := router.New(router.Config{Nodes: urls, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	rhs := httptest.NewServer(rt.Handler())
	defer rhs.Close()

	d := servetest.Dataset(t, 9)
	if got := servetest.PostNDJSON(t, rhs.URL, d); got != d.TotalPoints() {
		t.Fatalf("router accepted %d points, want %d", got, d.TotalPoints())
	}
	servetest.PostFlush(t, rhs.URL)

	resp, err := http.Get(rhs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Nodes     int    `json:"nodes"`
		In        uint64 `json:"points_in"`
		Forwarded uint64 `json:"router_forwarded_points"`
		PerNode   []struct {
			Node string `json:"node"`
			In   uint64 `json:"points_in"`
		} `json:"per_node"`
		Latency []struct {
			Name   string `json:"name"`
			Labels string `json:"labels"`
			Count  uint64 `json:"count"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	total := uint64(d.TotalPoints())
	if stats.Nodes != 3 || stats.In != total || stats.Forwarded != total {
		t.Errorf("stats nodes=%d points_in=%d forwarded=%d, want 3/%d/%d",
			stats.Nodes, stats.In, stats.Forwarded, total, total)
	}
	var perNode uint64
	for _, n := range stats.PerNode {
		perNode += n.In
	}
	if perNode != total {
		t.Errorf("per-node points_in sums to %d, want %d", perNode, total)
	}
	for _, name := range []string{"stream_queue_wait_seconds", "stream_process_seconds", "stream_sink_seconds"} {
		found := false
		for _, h := range stats.Latency {
			if h.Name == name && h.Labels == "" && h.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("aggregated latency lost %s (the decomposition series)", name)
		}
	}
}

// TestRouterTraceparentEndToEnd pins the distributed-trace contract: a
// fixed traceparent injected at the router is echoed on the router's
// response and adopted by the worker, so the worker's flight recorder
// shows the client's trace ID — one trace spanning client -> router ->
// worker.
func TestRouterTraceparentEndToEnd(t *testing.T) {
	w := startSinkWorker(t, filepath.Join(t.TempDir(), "n0.mstore"))
	rt, err := router.New(router.Config{Nodes: []string{w.hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rhs := httptest.NewServer(rt.Handler())
	defer rhs.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	const tp = "00-" + traceID + "-00f067aa0ba902b7-01"
	var body bytes.Buffer
	if err := traceio.WriteJSONL(&body, servetest.Dataset(t, 2)); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, rhs.URL+"/ingest", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest via router: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("traceparent"); got != tp {
		t.Errorf("router echoed traceparent %q, want %q", got, tp)
	}

	tresp, err := http.Get(w.hs.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, tresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), traceID) {
		t.Errorf("worker flight recorder does not show forwarded trace %s:\n%.2000s", traceID, sb.String())
	}
}
