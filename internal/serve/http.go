// Package serve is the HTTP layer the online worker
// (internal/serve/worker, behind cmd/mobiserve) and the multi-node
// router (internal/router, behind cmd/mobirouter) share. It holds no
// mechanism, store or risk code, so the router links none of it.
//
// # One ingest loop
//
// POST /ingest on a worker and on the router is the same loop, Ingest:
// decode the body record at a time, place each user on a destination
// (the worker has one, the router has one per node, picked by
// rng.Shard), buffer at most one batch per destination, and send full
// batches in body order so each user's arrival order survives. The
// worker's send blocks on the engine's backpressure; the router's is an
// upstream POST. At the end of the body the partial batches go out in
// parallel through FanOut.
//
// # One lifecycle
//
// ListenAndServe runs both binaries: serve until SIGINT or SIGTERM,
// shut the listener down and wait for in-flight requests, then drain.
// For the worker, drain stops the engine (every withheld point is
// flushed to the sink) and only then commits the store sink, so a
// graceful stop loses nothing that was accepted. Long-lived streams are
// not in-flight requests: Stopping tells them to end when shutdown
// begins.
//
// Error maps failures to status codes the same way for both: 400 for a
// body that does not decode, 408 for a client that went away, 503 for a
// closed engine or an unreachable node (ErrUnavailable).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"mobipriv/internal/obs"
	"mobipriv/internal/stream"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// Ingest reads an ingest request body one record at a time (NDJSON, or
// CSV when the Content-Type is text/csv) and hands the records to send
// in batches. place puts each user on one of dests destinations. A
// destination buffers at most batch records, and send gets its batches
// in body order, so every user's points keep their arrival order; send
// must not retain b. When the body ends, the partial batches left over
// are sent concurrently: distinct destinations hold disjoint users.
// Ingest returns how many records send took.
func Ingest(r *http.Request, batch, dests int, place func(user string) int, send func(dest int, b []stream.Update) error) (int, error) {
	bufs := make([][]stream.Update, dests)
	// sent is per destination so the concurrent tail writes disjoint slots.
	sent := make([]int, dests)
	flush := func(i int) error {
		if len(bufs[i]) == 0 {
			return nil
		}
		if err := send(i, bufs[i]); err != nil {
			return err
		}
		sent[i] += len(bufs[i])
		bufs[i] = bufs[i][:0]
		return nil
	}
	record := func(user string, p trace.Point) error {
		i := place(user)
		if bufs[i] == nil {
			bufs[i] = make([]stream.Update, 0, batch)
		}
		bufs[i] = append(bufs[i], stream.Update{User: user, Point: p})
		if len(bufs[i]) >= batch {
			return flush(i)
		}
		return nil
	}
	decode := traceio.DecodeJSONL
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		decode = traceio.DecodeCSV
	}
	if err := decode(r.Body, record); err != nil {
		return 0, err
	}
	if err := FanOut(dests, flush); err != nil {
		return 0, err
	}
	accepted := 0
	for _, n := range sent {
		accepted += n
	}
	return accepted, nil
}

// FanOut runs fn(0) .. fn(n-1), concurrently when n > 1, waits for all
// of them and returns their errors joined in index order. Unlike
// par.Map it never cancels the rest on a failure, so a fleet-wide probe
// names every failing node.
func FanOut(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ErrUnavailable marks a failure that Error answers with 503: the
// request was well formed, but the service, or the part of a fleet the
// error names, cannot take it now. Errors match it through errors.Is.
var ErrUnavailable = errors.New("service unavailable")

// Error answers a failed request with err's text and the status the
// failure calls for: 408 when the client went away or its deadline
// passed, 503 when the engine is closed or err matches ErrUnavailable,
// and 400 otherwise, since then the body failed to decode.
func Error(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, context.Canceled):
		code = http.StatusRequestTimeout
	case errors.Is(err, ErrUnavailable), errors.Is(err, stream.ErrClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusRequestTimeout
	}
	http.Error(w, err.Error(), code)
}

// WriteJSON answers with v encoded as JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Metrics serves reg in the Prometheus text exposition format.
func Metrics(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}

// StatsResponse is a worker's GET /stats wire format. The router
// decodes its workers' /stats into it too, so the two sides share one
// shape.
type StatsResponse struct {
	Mechanism   string  `json:"mechanism"`
	UptimeS     float64 `json:"uptime_s"`
	In          uint64  `json:"points_in"`
	Out         uint64  `json:"points_out"`
	PointsPerS  float64 `json:"points_per_s"`
	Evicted     uint64  `json:"evicted_users"`
	Stalls      uint64  `json:"push_stalls"`
	ActiveUsers int     `json:"active_users"`
	DroppedSub  uint64  `json:"dropped_subscriber_points"`
	SinkFails   uint64  `json:"sink_write_failures"`
	// Store-sink view: points this session wrote, plus what recovery
	// found at open. Zero without a .mstore sink.
	SinkPoints  uint64              `json:"sink_store_points"`
	SinkGens    uint64              `json:"sink_store_generations"`
	SinkRecov   uint64              `json:"sink_recovery_runs"`
	RiskUsers   int                 `json:"risk_users"`
	RiskFlagged int                 `json:"risk_flagged"`
	Goroutines  int                 `json:"goroutines"`
	HeapInuse   uint64              `json:"heap_inuse_bytes"`
	GCRuns      uint64              `json:"gc_runs"`
	Shards      []stream.ShardStats `json:"shards"`
	// Latency is the quantile summary of every histogram series the
	// registry holds (HTTP routes, engine queue-wait/process/sink) —
	// the same numbers /metrics exposes as bucket counts.
	Latency []obs.HistogramSnapshot `json:"latency"`
}

// stoppingKey keys the shutdown channel in a request's context.
type stoppingKey struct{}

// Stopping returns a channel that ListenAndServe closes when shutdown
// begins. A long-lived handler (the worker's GET /out stream) selects on
// it and returns, because the shutdown would otherwise wait for it as
// for any in-flight request. Outside ListenAndServe it returns nil,
// which never fires.
func Stopping(ctx context.Context) <-chan struct{} {
	ch, _ := ctx.Value(stoppingKey{}).(chan struct{})
	return ch
}

// ListenAndServe serves h on addr until the process receives SIGINT or
// SIGTERM. It then closes the Stopping channel, stops accepting
// connections and gives in-flight requests up to five seconds to
// finish. Only after that does it call drain (when not nil), so no
// request races what drain tears down. It returns the listener's error,
// or else drain's.
func ListenAndServe(addr string, h http.Handler, drain func() error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopping := make(chan struct{})
	// ReadHeaderTimeout bounds a client that opens a connection and
	// never finishes its headers; bodies stay unbounded in time, because
	// ingest blocks on backpressure while it reads.
	hs := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext: func(net.Listener) context.Context {
			return context.WithValue(context.Background(), stoppingKey{}, stopping)
		},
	}
	shut := make(chan struct{})
	go func() {
		defer close(shut)
		<-ctx.Done()
		close(stopping)
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()
	err := hs.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	// ListenAndServe returns as soon as Shutdown starts; wait for the
	// in-flight requests too. Cancelling ctx ends the wait when the
	// listener failed on its own.
	stop()
	<-shut
	if drain != nil {
		if derr := drain(); err == nil {
			err = derr
		}
	}
	return err
}
