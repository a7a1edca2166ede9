// Package router is the multi-node fan-out layer: a thin, stateless
// HTTP router that fronts N mobiserve workers and exposes the same
// ingest API as a single worker, so a client (mobiload, curl) cannot
// tell a fleet from one process.
//
// # Placement
//
// A user is pinned to the worker numbered rng.Shard(user, nodes) —
// splitmix64(fnv64a(user)) mod the node count, the exact hash(user)
// placement contract the stream engine shards by in-process and the
// .mstore format pins segments with. Because every layer routes
// through the one shared helper, a user's points always land on one
// worker in arrival order, and the fleet's output is provably
// byte-equivalent to a single node's: same mechanism state, same
// (seed, user) determinism, just partitioned. Placement is mod-n, not
// ring consistent hashing — resizing the fleet remaps keys
// predictably (the fraction keeping their node moving n -> m workers
// is min(n,m)/lcm(n,m)) and rebalancing is a drain-flush-restart, not
// a live migration.
//
// # Forwarding
//
// Ingest bodies (NDJSON or CSV) are decoded record-at-a-time and
// batched by destination node through serve.Ingest, the same loop a
// worker runs: one upstream POST per (node, batch) rather than per
// record, over a shared connection-reusing http.Client. Sends to one
// node stay sequential (per-user order is part of the contract);
// distinct nodes flush in parallel. Transient
// upstream failures are retried with bounded exponential backoff;
// exhausting the retries surfaces a 503 naming the failing node —
// a partition is never silently dropped. Each upstream request runs
// under a per-request timeout so a hung worker cannot pin router
// goroutines. Incoming W3C traceparent headers are forwarded upstream
// and echoed on the response, so one trace spans client -> router ->
// worker -> sink.
//
// # Aggregation
//
// GET /stats fans out to every node and merges the responses into the
// single-node wire shape: scalar counters sum; latency histograms
// merge exactly via the sparse-bin HistogramSnapshot state
// (obs.Histogram.MergeSnapshot), so fleet-wide quantiles are
// bit-identical to a single process observing the same values — the
// same merge contract the rest of the codebase's accumulators honor.
// GET /metrics exposes the router's own per-node series:
// router_forwarded_points, router_upstream_errors and the
// router_upstream_seconds latency histogram.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"mobipriv/internal/obs"
	"mobipriv/internal/rng"
	"mobipriv/internal/serve"
	"mobipriv/internal/stream"
	"mobipriv/internal/traceio"
)

// Config parameterizes a Router.
type Config struct {
	// Nodes lists the upstream mobiserve workers, as "host:port" or
	// full "http://host:port" base URLs. Order matters: placement is
	// rng.Shard(user, len(Nodes)) into this slice, so every router in
	// front of the same fleet must list the nodes identically.
	Nodes []string

	// Batch caps the points buffered per destination node before a
	// flush mid-request (default 256, matching mobiserve's ingest
	// batch). The end of the request body always flushes everything.
	Batch int

	// Retries is how many times a failed upstream send is retried
	// (default 2, so up to 3 attempts). Retried failures are transport
	// errors and 5xx responses — a 4xx is the client's fault and is
	// surfaced immediately.
	Retries int

	// RetryBackoff is the initial delay before the first retry,
	// doubling per attempt (default 50ms).
	RetryBackoff time.Duration

	// Timeout bounds each individual upstream request (default 30s).
	// A hung worker fails that request rather than pinning the router.
	Timeout time.Duration

	// Client overrides the upstream HTTP client (tests). Nil means a
	// default client with connection reuse.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Router fans the single-node ingest API out over a fleet of mobiserve
// workers. Construct with New; it is ready to serve via Handler.
type Router struct {
	nodes   []string // normalized base URLs, placement order
	names   []string // host:port label values, same order
	cfg     Config
	client  *http.Client
	reg     *obs.Registry
	started time.Time

	forwarded []*obs.Counter   // router_forwarded_points per node
	upErrors  []*obs.Counter   // router_upstream_errors per node
	upSeconds []*obs.Histogram // router_upstream_seconds per node
}

// New builds a Router over the given fleet. At least one node is
// required; node addresses are normalized to http:// base URLs.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("router: no nodes")
	}
	rt := &Router{
		cfg:     cfg,
		client:  cfg.Client,
		reg:     obs.NewRegistry(),
		started: time.Now(),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	for _, n := range cfg.Nodes {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, errors.New("router: empty node address")
		}
		if !strings.Contains(n, "://") {
			n = "http://" + n
		}
		n = strings.TrimRight(n, "/")
		name := strings.TrimPrefix(strings.TrimPrefix(n, "http://"), "https://")
		rt.nodes = append(rt.nodes, n)
		rt.names = append(rt.names, name)
	}
	for _, name := range rt.names {
		rt.forwarded = append(rt.forwarded, rt.reg.Counter("router_forwarded_points",
			"Points forwarded to each upstream node.", obs.L("node", name)))
		rt.upErrors = append(rt.upErrors, rt.reg.Counter("router_upstream_errors",
			"Failed upstream requests (transport errors and 5xx), by node; each retry attempt counts.", obs.L("node", name)))
		rt.upSeconds = append(rt.upSeconds, rt.reg.Histogram("router_upstream_seconds",
			"Upstream request latency, by node.", obs.L("node", name)))
	}
	obs.RegisterProcessMetrics(rt.reg)
	rt.reg.GaugeFunc("router_nodes",
		"Upstream nodes this router fans out over.",
		func() float64 { return float64(len(rt.nodes)) })
	return rt, nil
}

// Nodes returns the normalized upstream base URLs in placement order.
func (rt *Router) Nodes() []string { return append([]string(nil), rt.nodes...) }

// NodeOf returns the index of the node that owns user — the placement
// contract rng.Shard(user, nodes), shared with the stream engine's
// shard pinning so router-level and engine-level placement can never
// drift.
func (rt *Router) NodeOf(user string) int { return rng.Shard(user, len(rt.nodes)) }

// Handler returns the router's HTTP API: the mobiserve ingest surface
// (POST /ingest, POST /flush, GET /stats, GET /metrics, GET /healthz)
// served fleet-wide.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", rt.handleIngest)
	mux.HandleFunc("POST /flush", rt.handleFlush)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", serve.Metrics(rt.reg))
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// echoTraceparent returns the request's traceparent (empty when
// absent) and echoes it on the response.
func echoTraceparent(w http.ResponseWriter, r *http.Request) string {
	tp := r.Header.Get("traceparent")
	if tp != "" {
		w.Header().Set("traceparent", tp)
	}
	return tp
}

// handleIngest runs the shared ingest loop with one destination per
// node, forwarding one upstream POST per (node, batch). The incoming
// traceparent (if any) is echoed on the response and forwarded on every
// upstream request.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	tp := echoTraceparent(w, r)
	accepted, err := serve.Ingest(r, rt.cfg.Batch, len(rt.nodes), rt.NodeOf, func(i int, b []stream.Update) error {
		return rt.sendBatch(r.Context(), i, b, tp)
	})
	if err != nil {
		serve.Error(w, err)
		return
	}
	serve.WriteJSON(w, map[string]any{"accepted": accepted})
}

// sendBatch forwards one batch of records to node i as NDJSON, with
// bounded retry on transient failures (transport errors, 5xx). Every
// failed attempt increments router_upstream_errors{node}; exhausting
// the attempts returns an error naming the node.
func (rt *Router) sendBatch(ctx context.Context, i int, batch []stream.Update, traceparent string) error {
	var body bytes.Buffer
	for _, u := range batch {
		traceio.WriteJSONLRecord(&body, u.User, u.Point)
	}
	err := rt.upstream(ctx, i, http.MethodPost, "/ingest", body.Bytes(), traceparent)
	if err != nil {
		return err
	}
	rt.forwarded[i].Add(uint64(len(batch)))
	return nil
}

// upstream performs one logical request to node i with the router's
// retry/backoff/timeout policy. A non-nil reqBody is sent as NDJSON
// (fresh reader per attempt, so retries are safe).
func (rt *Router) upstream(ctx context.Context, i int, method, path string, reqBody []byte, traceparent string) error {
	var lastErr error
	for attempt := 0; attempt <= rt.cfg.Retries; attempt++ {
		if attempt > 0 {
			backoff := rt.cfg.RetryBackoff << uint(attempt-1)
			select {
			case <-ctx.Done():
				return &NodeError{Node: rt.names[i], Err: fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)}
			case <-time.After(backoff):
			}
		}
		lastErr = rt.attempt(ctx, i, method, path, reqBody, traceparent)
		if lastErr == nil {
			return nil
		}
		rt.upErrors[i].Inc()
		var retry *retryableError
		if !errors.As(lastErr, &retry) {
			break
		}
	}
	return &NodeError{Node: rt.names[i], Err: lastErr}
}

// NodeError reports a failure talking to one specific upstream node,
// so a partition outage is always attributable by name. It matches
// serve.ErrUnavailable, so the router answers it with 503.
type NodeError struct {
	Node string
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("node %s: %v", e.Node, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// Is makes a NodeError match serve.ErrUnavailable.
func (e *NodeError) Is(target error) bool { return target == serve.ErrUnavailable }

// retryableError marks an upstream failure worth retrying: the worker
// may be restarting or momentarily overloaded.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// attempt is one upstream HTTP round trip under the per-request
// timeout, observed into router_upstream_seconds{node}.
func (rt *Router) attempt(ctx context.Context, i int, method, path string, reqBody []byte, traceparent string) error {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	var body io.Reader
	if reqBody != nil {
		body = bytes.NewReader(reqBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.nodes[i]+path, body)
	if err != nil {
		return err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	rt.upSeconds[i].ObserveDuration(time.Since(start))
	if err != nil {
		return &retryableError{err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 500 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return &retryableError{fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))}
	}
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// handleFlush forwards the flush to every node; all must succeed.
func (rt *Router) handleFlush(w http.ResponseWriter, r *http.Request) {
	tp := echoTraceparent(w, r)
	err := serve.FanOut(len(rt.nodes), func(i int) error {
		return rt.upstream(r.Context(), i, http.MethodPost, "/flush", nil, tp)
	})
	if err != nil {
		serve.Error(w, err)
		return
	}
	serve.WriteJSON(w, map[string]any{"flushed": true})
}

// Check probes every node's /healthz concurrently and returns an
// error naming each unreachable node (nil when the whole fleet
// answers). It is the health contract behind GET /healthz and the
// startup probe in cmd/mobirouter.
func (rt *Router) Check(ctx context.Context) error {
	return serve.FanOut(len(rt.nodes), func(i int) error {
		return rt.get(ctx, i, "/healthz", nil)
	})
}

// get fetches path from node i under the per-request timeout and, when
// v is not nil, decodes the JSON answer into it. A failure names the
// node.
func (rt *Router) get(ctx context.Context, i int, path string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.nodes[i]+path, nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return &NodeError{Node: rt.names[i], Err: err}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return &NodeError{Node: rt.names[i], Err: fmt.Errorf("HTTP %d", resp.StatusCode)}
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return &NodeError{Node: rt.names[i], Err: fmt.Errorf("%s: %w", path, err)}
		}
	}
	return nil
}

// handleHealthz probes every node; any dead node makes the router
// unhealthy with a body naming it, so a partition outage is loud.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := rt.Check(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// nodeStats is the per-node breakdown in the router's /stats.
type nodeStats struct {
	Node        string `json:"node"`
	In          uint64 `json:"points_in"`
	ActiveUsers int    `json:"active_users"`
	Forwarded   uint64 `json:"router_forwarded_points"`
	Errors      uint64 `json:"router_upstream_errors"`
}

// statsResponse is the router's /stats wire format — a superset of the
// single-node fields (points_in, push_stalls, latency), aggregated
// fleet-wide.
type statsResponse struct {
	Nodes       int                     `json:"nodes"`
	UptimeS     float64                 `json:"uptime_s"`
	In          uint64                  `json:"points_in"`
	Out         uint64                  `json:"points_out"`
	PointsPerS  float64                 `json:"points_per_s"`
	Stalls      uint64                  `json:"push_stalls"`
	Evicted     uint64                  `json:"evicted_users"`
	ActiveUsers int                     `json:"active_users"`
	SinkPoints  uint64                  `json:"sink_store_points"`
	Forwarded   uint64                  `json:"router_forwarded_points"`
	UpErrors    uint64                  `json:"router_upstream_errors"`
	PerNode     []nodeStats             `json:"per_node"`
	Latency     []obs.HistogramSnapshot `json:"latency"`
}

// handleStats fans out to every node's /stats and merges: scalars sum,
// histograms merge exactly through their sparse-bin snapshots, so the
// fleet-wide quantiles equal a single process having observed
// everything. The response keeps the single-node wire shape (plus
// per-node detail), so mobiload's stage latency lines read the same
// against a router.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := make([]*serve.StatsResponse, len(rt.nodes))
	err := serve.FanOut(len(rt.nodes), func(i int) error {
		stats[i] = new(serve.StatsResponse)
		return rt.get(r.Context(), i, "/stats", stats[i])
	})
	if err != nil {
		serve.Error(w, err)
		return
	}
	up := time.Since(rt.started).Seconds()
	resp := statsResponse{
		Nodes:   len(rt.nodes),
		UptimeS: up,
		Latency: mergeSnapshots(stats),
	}
	for i, st := range stats {
		resp.In += st.In
		resp.Out += st.Out
		resp.Stalls += st.Stalls
		resp.Evicted += st.Evicted
		resp.ActiveUsers += st.ActiveUsers
		resp.SinkPoints += st.SinkPoints
		resp.Forwarded += rt.forwarded[i].Value()
		resp.UpErrors += rt.upErrors[i].Value()
		resp.PerNode = append(resp.PerNode, nodeStats{
			Node:        rt.names[i],
			In:          st.In,
			ActiveUsers: st.ActiveUsers,
			Forwarded:   rt.forwarded[i].Value(),
			Errors:      rt.upErrors[i].Value(),
		})
	}
	if up > 0 {
		resp.PointsPerS = float64(resp.In) / up
	}
	// The router's own upstream latency joins the merged view under its
	// per-node labels.
	resp.Latency = append(resp.Latency, rt.reg.HistogramSnapshots()...)
	sortSnapshots(resp.Latency)
	serve.WriteJSON(w, resp)
}

// mergeSnapshots folds every node's histogram series together by
// (name, labels) via the exact sparse-bin state.
func mergeSnapshots(stats []*serve.StatsResponse) []obs.HistogramSnapshot {
	type key struct{ name, labels string }
	merged := make(map[key]*obs.Histogram)
	var order []key
	for _, st := range stats {
		for _, snap := range st.Latency {
			k := key{snap.Name, snap.Labels}
			h := merged[k]
			if h == nil {
				h = obs.NewHistogram()
				merged[k] = h
				order = append(order, k)
			}
			h.MergeSnapshot(snap)
		}
	}
	out := make([]obs.HistogramSnapshot, 0, len(order))
	for _, k := range order {
		out = append(out, merged[k].Snapshot(k.name, k.labels))
	}
	sortSnapshots(out)
	return out
}

// sortSnapshots orders snapshots by (name, labels), the registry's
// canonical exposition order.
func sortSnapshots(s []obs.HistogramSnapshot) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Name != s[j].Name {
			return s[i].Name < s[j].Name
		}
		return s[i].Labels < s[j].Labels
	})
}
