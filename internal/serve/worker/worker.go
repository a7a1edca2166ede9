// Package worker is the online anonymization worker behind
// cmd/mobiserve.
//
// A Server resolves a streaming-capable mechanism spec from the mobipriv
// registry and builds the sharded streaming engine (internal/stream)
// around it: one mechanism instance per user, optionally chained with
// the online pseudonymizer, all wrapped by a risk tap that mirrors what
// is published into the live monitor (internal/risk). New starts the
// engine; the anonymized batches it emits fan out to a sink (an NDJSON
// file, or a native .mstore extended across restarts), to live GET /out
// subscribers, and to the metrics registry /stats and /metrics both read.
//
// POST /ingest runs the ingest loop the router shares (serve.Ingest)
// with a single destination, the engine, whose backpressure blocks the
// request while shard queues are full.
//
// Close is the drain step of serve.ListenAndServe: once in-flight
// requests are done it stops the engine, which flushes every withheld
// point to the sink, and only then commits the store sink, so a graceful
// stop loses nothing that was accepted. GET /out streams are live views,
// not in-flight requests: they end when shutdown begins, so a connected
// subscriber does not hold up the stop and does not see the points the
// drain flushes (the sink does).
package worker

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobipriv"
	"mobipriv/internal/obs"
	otrace "mobipriv/internal/obs/trace"
	"mobipriv/internal/risk"
	"mobipriv/internal/serve"
	"mobipriv/internal/store"
	"mobipriv/internal/stream"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// Config parameterizes a Server.
type Config struct {
	Spec      string
	Shards    int
	Queue     int
	Batch     int
	TTL       time.Duration
	Pseudonym string
	Seed      int64
	// RiskMinDays configures the live risk monitor's recurrence
	// threshold; 0 disables monitoring entirely.
	RiskMinDays int
	// Pprof mounts the net/http/pprof debug endpoints.
	Pprof bool
	// TraceSample is the fraction of requests recorded as spans,
	// deterministic per trace ID (so replaying identical traffic with a
	// fixed seed samples identical requests). 0 disables recording;
	// /debug/traces stays mounted but empty.
	TraceSample float64
	// TraceSlow, when positive, logs every sampled root span at least
	// this slow.
	TraceSlow time.Duration
	// Sink, when set, receives the anonymized output: a native store
	// when the path ends in .mstore, else an NDJSON file appended to.
	Sink string
	// SinkFresh makes a .mstore sink refuse a path that already holds a
	// store. By default an existing store, even one a crashed run left,
	// is recovered and extended with a new generation.
	SinkFresh bool
}

// Server owns the engine and fans its output to the sinks and the live
// /out subscribers.
type Server struct {
	eng      *stream.Engine
	reg      *obs.Registry
	tracer   *otrace.Tracer // nil-safe: zero sample rate still mounts /debug/traces
	mechName string
	batch    int
	started  time.Time
	mon      *risk.Monitor // nil when monitoring is disabled
	pprofOn  bool

	// The sinks are opened in New and never change; mu serializes the
	// writes into them and guards the subscriber set.
	sinkPath  string
	sinkFile  *os.File
	sinkStore *store.Writer
	mu        sync.Mutex
	subs      map[int]chan []stream.Update
	nextSub   int
	dropped   atomic.Uint64
	sinkFails atomic.Uint64

	engDone  chan error    // the engine's Run result
	stopTick chan struct{} // closed by Close to stop the periodic store flush
	tickDone chan struct{} // closed when the periodic store flush returned
}

// New resolves the mechanism spec to its streaming adapter, builds the
// engine around it, opens the sink and starts the engine. Close stops
// it.
func New(cfg Config) (*Server, error) {
	m, err := mobipriv.FromSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	factory, ok := mobipriv.AsStreaming(m)
	if !ok {
		return nil, fmt.Errorf("mechanism %q cannot run online (streaming-capable: %s)",
			m.Name(), strings.Join(mobipriv.StreamingMechanisms(), ", "))
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	s := &Server{
		reg:      obs.NewRegistry(),
		mechName: m.Name(),
		batch:    cfg.Batch,
		started:  time.Now(),
		pprofOn:  cfg.Pprof,
		sinkPath: cfg.Sink,
		subs:     make(map[int]chan []stream.Update),
	}
	// The tracer exists whenever a sample rate is set; rate 0 leaves
	// s.tracer nil, and every span call site is nil-safe, so an untraced
	// server pays nothing.
	if cfg.TraceSample > 0 {
		s.tracer = otrace.New(otrace.Config{
			SampleRate:    cfg.TraceSample,
			Seed:          uint64(cfg.Seed),
			SlowThreshold: cfg.TraceSlow,
			SlowFunc: func(rs *otrace.RootSpan) {
				log.Printf("mobiserve: slow trace %s %s: %s (%d spans)",
					rs.Name, rs.Trace, rs.Root.Duration, len(rs.Spans))
			},
		})
	}
	if cfg.RiskMinDays > 0 {
		mcfg := risk.DefaultMonitorConfig()
		mcfg.MinDays = cfg.RiskMinDays
		if s.mon, err = risk.NewMonitor(mcfg); err != nil {
			return nil, err
		}
		s.mon.SetTracer(s.tracer)
	}
	pseudo := stream.Pseudonymize{Prefix: cfg.Pseudonym, Seed: cfg.Seed}
	eng, err := stream.NewEngine(stream.Config{
		Shards:     cfg.Shards,
		QueueDepth: cfg.Queue,
		IdleTTL:    cfg.TTL,
		Sink:       s.sink,
	}, func(user string) stream.Mechanism {
		mech := factory(user)
		if cfg.Pseudonym != "" {
			mech = stream.Chain(mech, pseudo.New(user))
		}
		if s.mon != nil {
			// The tap wraps the WHOLE chain: the monitor sees exactly
			// the points the service publishes, keyed by input user so
			// the risk verdict names an accountable identity.
			mech = riskTap{inner: mech, mon: s.mon, user: user}
		}
		return mech
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.registerMetrics()
	if err := s.openSink(cfg.Sink, cfg.SinkFresh); err != nil {
		return nil, err
	}

	// The engine runs on a background context and stops only through
	// Close: stopping it with a cancelled context would kill the shard
	// goroutines before they flush, dropping every withheld sample.
	s.engDone = make(chan error, 1)
	go func() { s.engDone <- s.eng.Run(context.Background()) }()
	s.stopTick = make(chan struct{})
	s.tickDone = make(chan struct{})
	go s.flushStoreSinkEvery(time.Minute)
	return s, nil
}

// Close stops the server in dependency order: the periodic store flush
// stops, the engine flushes every open trace into the sinks and its
// shards exit, and then the store sink commits (Close writes the footers
// and manifest that make the store readable) and the file sink closes.
// Call it once, after the HTTP listener has stopped.
func (s *Server) Close() error {
	close(s.stopTick)
	<-s.tickDone
	s.eng.Close()
	err := <-s.engDone
	if s.sinkStore != nil {
		if cerr := s.sinkStore.Close(); err == nil {
			err = cerr
		}
	}
	if s.sinkFile != nil {
		if cerr := s.sinkFile.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// registerMetrics publishes every subsystem on the server's registry.
// All series are scrape-time views over the counters the subsystems
// already maintain, so /stats (which reads the registry too) and
// /metrics are the same numbers by construction.
func (s *Server) registerMetrics() {
	s.eng.RegisterMetrics(s.reg)
	if s.mon != nil {
		s.mon.RegisterMetrics(s.reg)
	}
	obs.RegisterProcessMetrics(s.reg)
	if s.tracer != nil {
		s.reg.CounterFunc("trace_published_roots_total",
			"Root spans published to the flight recorder.",
			func() float64 { return float64(s.tracer.Published()) })
	}
	s.reg.GaugeFunc("mobiserve_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.CounterFunc("mobiserve_sink_write_failures_total",
		"Failed sink writes (file batches or store appends/flushes).",
		func() float64 { return float64(s.sinkFails.Load()) })
	s.reg.CounterFunc("mobiserve_dropped_subscriber_points_total",
		"Points dropped because an /out subscriber was too slow.",
		func() float64 { return float64(s.dropped.Load()) })
	// Store-sink write totals: zero without a .mstore sink.
	sinkStat := func(pick func(store.WriterStats) int64) func() float64 {
		return func() float64 { return float64(pick(s.sinkStoreStats())) }
	}
	s.reg.CounterFunc("mobiserve_sink_store_blocks_total",
		"Blocks written by the .mstore sink.",
		sinkStat(func(st store.WriterStats) int64 { return st.Blocks }))
	s.reg.CounterFunc("mobiserve_sink_store_bytes_total",
		"Encoded bytes written by the .mstore sink.",
		sinkStat(func(st store.WriterStats) int64 { return st.Bytes }))
	s.reg.CounterFunc("mobiserve_sink_store_points_total",
		"Points written by the .mstore sink.",
		sinkStat(func(st store.WriterStats) int64 { return st.Points }))
	// Recovery view: what OpenAppend found (and cleaned up) when the
	// sink was opened. Zero without a .mstore sink.
	recStat := func(pick func(store.RecoveryStats) int64) func() float64 {
		return func() float64 {
			if s.sinkStore == nil {
				return 0
			}
			return float64(pick(s.sinkStore.Recovery()))
		}
	}
	s.reg.CounterFunc("store_recovery_runs",
		"Recovery passes run when the .mstore sink was opened.",
		recStat(func(r store.RecoveryStats) int64 { return r.Runs }))
	s.reg.CounterFunc("store_truncated_tails",
		"Uncommitted segment files removed and torn tails truncated by sink recovery.",
		recStat(func(r store.RecoveryStats) int64 { return r.TruncatedTails }))
	s.reg.GaugeFunc("store_generations",
		"Committed generations the .mstore sink extends (this session's data becomes one more at shutdown).",
		recStat(func(r store.RecoveryStats) int64 { return r.Generation }))
}

// openSink opens path as the server's sink: a .mstore path becomes a
// store sink, anything else an NDJSON file appended to. A store is
// opened for append, so a store left by a previous run (even one that
// crashed) is recovered and extended with a new generation. With fresh
// set, the path must not already hold a store: Create refuses it,
// surfacing accidental reuse instead of silently growing the wrong
// dataset.
func (s *Server) openSink(path string, fresh bool) error {
	switch {
	case path == "":
		return nil
	case !strings.HasSuffix(path, ".mstore"):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open sink: %w", err)
		}
		s.sinkFile = f
	case fresh:
		sw, err := store.Create(path, store.Options{})
		if err != nil {
			return fmt.Errorf("create store sink: %w", err)
		}
		s.sinkStore = sw
	default:
		sw, err := store.OpenAppend(path, store.Options{})
		if err != nil {
			return fmt.Errorf("open store sink: %w", err)
		}
		if rec := sw.Recovery(); rec.Generation > 0 || rec.TruncatedTails > 0 {
			log.Printf("mobiserve: store sink %s: extending %d committed generation(s), recovery cleaned %d uncommitted file(s)",
				path, rec.Generation, rec.TruncatedTails)
		}
		s.sinkStore = sw
	}
	return nil
}

// sink receives anonymized batches from the shard goroutines. The
// engine reuses the batch after the call, so subscribers get a copy.
func (s *Server) sink(batch []stream.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sinkStore != nil {
		for _, u := range batch {
			if err := s.sinkStore.Append(u.User, u.Point); err != nil {
				if s.sinkFails.Add(1) == 1 {
					log.Printf("mobiserve: store sink append failed (counting further failures in /stats): %v", err)
				}
			}
		}
	}
	if s.sinkFile != nil {
		var buf bytes.Buffer
		for _, u := range batch {
			traceio.WriteJSONLRecord(&buf, u.User, u.Point)
		}
		if _, err := s.sinkFile.Write(buf.Bytes()); err != nil {
			// Count every failed batch, log only the first: a full disk
			// must surface in /stats without flooding the log.
			if s.sinkFails.Add(1) == 1 {
				log.Printf("mobiserve: sink write failed (counting further failures in /stats): %v", err)
			}
		}
	}
	if len(s.subs) == 0 {
		return
	}
	cp := make([]stream.Update, len(batch))
	copy(cp, batch)
	for _, ch := range s.subs {
		select {
		case ch <- cp:
		default:
			s.dropped.Add(uint64(len(cp))) // slow reader: drop, never stall shards
		}
	}
}

func (s *Server) subscribe() (int, <-chan []stream.Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextSub
	s.nextSub++
	// A subscriber may lag its sink by this many batches before sink
	// starts dropping its points.
	ch := make(chan []stream.Update, 256)
	s.subs[id] = ch
	return id, ch
}

func (s *Server) unsubscribe(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, id)
}

// String names the mechanism, the shard count, the sink and every
// enabled endpoint, so the startup log shows at a glance what this
// instance exposes (and what it does not: no silent sink or pprof
// surprises).
func (s *Server) String() string {
	endpoints := []string{"POST /ingest", "POST /flush", "GET /out", "GET /stats", "GET /metrics", "GET /healthz", "GET /debug/traces"}
	if s.mon != nil {
		endpoints = append(endpoints, "GET /risk", "POST /risk/reset")
	}
	if s.pprofOn {
		endpoints = append(endpoints, "GET /debug/pprof/")
	}
	sinkDesc := "none"
	switch {
	case s.sinkStore != nil:
		sinkDesc = "store " + s.sinkPath
	case s.sinkFile != nil:
		sinkDesc = "file " + s.sinkPath
	}
	return fmt.Sprintf("%s (%d shards, sink %s) endpoints: %s",
		s.mechName, len(s.eng.Stats().Shards), sinkDesc, strings.Join(endpoints, " "))
}

// Handler returns the worker's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.instrument("/ingest", s.handleIngest))
	mux.HandleFunc("POST /flush", s.instrument("/flush", s.handleFlush))
	mux.HandleFunc("GET /out", s.handleOut) // long-lived stream: latency is meaningless
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", serve.Metrics(s.reg)))
	mux.HandleFunc("GET /risk", s.instrument("/risk", s.handleRisk))
	mux.HandleFunc("POST /risk/reset", s.instrument("/risk/reset", s.handleRiskReset))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	// Deliberately uninstrumented: reading the flight recorder should
	// not itself mint spans that displace the traces being read.
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if s.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// instrument wraps a handler with a per-route request counter, a
// latency histogram, and — when the request's trace is sampled — a root
// span covering the whole request. An incoming W3C traceparent header
// keys the sampling decision and parents the span; the span's own
// identity is echoed back in the response traceparent so the client can
// join its measurements to the server's flight recorder.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := s.reg.Counter("mobiserve_http_requests_total",
		"HTTP requests served, by route.", obs.L("route", route))
	lat := s.reg.Histogram("mobiserve_http_request_seconds",
		"HTTP request latency, by route.", obs.L("route", route))
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var sp *otrace.Span
		if s.tracer != nil {
			id, parent, _, _ := otrace.ParseTraceparent(r.Header.Get("traceparent"))
			if sp = s.tracer.RootAt(route, id, parent, start); sp != nil {
				w.Header().Set("traceparent",
					otrace.FormatTraceparent(sp.TraceID(), sp.SpanID(), true))
				r = r.WithContext(otrace.NewContext(r.Context(), sp))
			}
		}
		h(w, r)
		reqs.Inc()
		lat.ObserveDuration(time.Since(start))
		sp.End()
	}
}

// handleTraces serves the flight recorder: recent root spans, the
// slowest exemplar per latency bucket, and per-span-kind summaries.
// JSON by default; ?format=text renders the human zpage.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	snap := s.tracer.Snapshot(32)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	snap.WriteJSON(w)
}

// handleIngest pushes the body's batches into the engine, blocking on
// shard backpressure.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	sp := otrace.FromContext(ctx)
	accepted, err := serve.Ingest(r, s.batch, 1, oneDest, func(_ int, b []stream.Update) error {
		return s.eng.PushTraced(ctx, sp, b...)
	})
	if err != nil {
		serve.Error(w, err)
		return
	}
	if sp != nil {
		sp.SetAttr(otrace.Int("accepted", int64(accepted)))
	}
	serve.WriteJSON(w, map[string]any{"accepted": accepted})
}

// oneDest places every user on the worker's only destination.
func oneDest(string) int { return 0 }

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	sp := otrace.FromContext(r.Context())
	c := sp.Child("engine.flush")
	err := s.eng.Flush(r.Context())
	c.End()
	if err != nil {
		serve.Error(w, err)
		return
	}
	c = sp.Child("sink.flush")
	s.flushStoreSink()
	c.End()
	serve.WriteJSON(w, map[string]any{"flushed": true})
}

// flushStoreSink drains the store writer's per-user buffers to disk so
// a long-running service's sink memory stays bounded; called after an
// engine flush and periodically. The resulting fragmentation is
// mobistore compact's job.
func (s *Server) flushStoreSink() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sinkStore == nil {
		return
	}
	if err := s.sinkStore.Flush(); err != nil {
		if s.sinkFails.Add(1) == 1 {
			log.Printf("mobiserve: store sink flush failed (counting further failures in /stats): %v", err)
		}
	}
}

// flushStoreSinkEvery flushes the store sink every period until Close.
// Each flush runs under its own sampled root span recording how many
// blocks and bytes it pushed out, so background sink work shows up in
// /debug/traces alongside request traces.
func (s *Server) flushStoreSinkEvery(period time.Duration) {
	defer close(s.tickDone)
	if s.sinkStore == nil {
		return
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stopTick:
			return
		case <-t.C:
		}
		sp := s.tracer.Root("sink.flush_periodic", otrace.TraceID{}, 0)
		before := s.sinkStoreStats()
		s.flushStoreSink()
		after := s.sinkStoreStats()
		sp.SetAttr(
			otrace.Int("blocks", after.Blocks-before.Blocks),
			otrace.Int("bytes", after.Bytes-before.Bytes))
		sp.End()
	}
}

// sinkStoreStats snapshots the store sink's writer counters (zero
// without a store sink).
func (s *Server) sinkStoreStats() store.WriterStats {
	if s.sinkStore == nil {
		return store.WriterStats{}
	}
	return s.sinkStore.Stats()
}

// handleOut streams anonymized output as NDJSON from the moment of
// connection until the client goes away or shutdown begins.
func (s *Server) handleOut(w http.ResponseWriter, r *http.Request) {
	fl, _ := w.(http.Flusher)
	id, ch := s.subscribe()
	defer s.unsubscribe(id)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if fl != nil {
		fl.Flush()
	}
	stopping := serve.Stopping(r.Context())
	for {
		select {
		case <-r.Context().Done():
			return
		case <-stopping:
			return
		case batch := <-ch:
			var buf bytes.Buffer
			for _, u := range batch {
				traceio.WriteJSONLRecord(&buf, u.User, u.Point)
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// riskTap wraps a user's whole mechanism chain and mirrors its
// published output into the risk monitor. Flush forwards the trailing
// points first, then closes the monitor's open stay — evidence
// (clusters, day counts) survives engine flushes and evictions by
// design: recurrence across days is exactly what the monitor is for.
type riskTap struct {
	inner stream.Mechanism
	mon   *risk.Monitor
	user  string
}

func (t riskTap) Push(p trace.Point) []trace.Point {
	out := t.inner.Push(p)
	t.mon.Observe(t.user, out...)
	return out
}

func (t riskTap) Flush() []trace.Point {
	out := t.inner.Flush()
	t.mon.Observe(t.user, out...)
	t.mon.EndTrace(t.user)
	return out
}

// OutUser forwards the inner chain's relabeling so the tap stays
// invisible to the engine.
func (t riskTap) OutUser(in string) string {
	if r, ok := t.inner.(stream.Relabeler); ok {
		return r.OutUser(in)
	}
	return in
}

// RiskResponse is the GET /risk wire format.
type RiskResponse struct {
	MinDays int             `json:"min_days"`
	Users   int             `json:"users"`
	Flagged int             `json:"flagged"`
	Risks   []risk.UserRisk `json:"risks"`
}

func (s *Server) handleRisk(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		http.Error(w, "risk monitoring disabled (-risk-min-days 0)", http.StatusNotFound)
		return
	}
	if user := r.URL.Query().Get("user"); user != "" {
		ur, ok := s.mon.User(user)
		if !ok {
			http.Error(w, "user not observed", http.StatusNotFound)
			return
		}
		serve.WriteJSON(w, ur)
		return
	}
	risks := s.mon.Snapshot()
	resp := RiskResponse{MinDays: s.mon.Config().MinDays, Users: len(risks), Risks: risks}
	for _, ur := range risks {
		if ur.Flagged {
			resp.Flagged++
		}
	}
	serve.WriteJSON(w, resp)
}

func (s *Server) handleRiskReset(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		http.Error(w, "risk monitoring disabled (-risk-min-days 0)", http.StatusNotFound)
		return
	}
	if user := r.URL.Query().Get("user"); user != "" {
		serve.WriteJSON(w, map[string]any{"reset": s.mon.Reset(user)})
		return
	}
	s.mon.ResetAll()
	serve.WriteJSON(w, map[string]any{"reset": true})
}

// Stats renders the /stats view. Every scalar is read back from the
// metrics registry — the same series /metrics scrapes — so the two
// endpoints cannot drift apart. Only the per-shard breakdown and the
// mechanism name come from outside the registry.
func (s *Server) Stats() serve.StatsResponse {
	regVal := func(name string) float64 {
		v, _ := s.reg.Value(name)
		return v
	}
	up := regVal("mobiserve_uptime_seconds")
	resp := serve.StatsResponse{
		Mechanism:   s.mechName,
		UptimeS:     up,
		In:          uint64(regVal("stream_points_in_total")),
		Out:         uint64(regVal("stream_points_out_total")),
		Evicted:     uint64(regVal("stream_evicted_users_total")),
		Stalls:      uint64(regVal("stream_push_stalls_total")),
		ActiveUsers: int(regVal("stream_active_users")),
		DroppedSub:  uint64(regVal("mobiserve_dropped_subscriber_points_total")),
		SinkFails:   uint64(regVal("mobiserve_sink_write_failures_total")),
		SinkPoints:  uint64(regVal("mobiserve_sink_store_points_total")),
		SinkGens:    uint64(regVal("store_generations")),
		SinkRecov:   uint64(regVal("store_recovery_runs")),
		RiskUsers:   int(regVal("risk_users")),
		RiskFlagged: int(regVal("risk_flagged_users")),
		Goroutines:  int(regVal("process_goroutines")),
		HeapInuse:   uint64(regVal("process_heap_inuse_bytes")),
		GCRuns:      uint64(regVal("process_gc_runs_total")),
		Shards:      s.eng.Stats().Shards,
		Latency:     s.reg.HistogramSnapshots(),
	}
	if up > 0 {
		resp.PointsPerS = float64(resp.In) / up
	}
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, s.Stats())
}
