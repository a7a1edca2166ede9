// Package load is the deterministic replay driver behind cmd/mobiload:
// it generates or loads a traffic trace, fires it at a running
// mobiserve instance over HTTP at a target rate, and reports the
// serving performance (points/s, ingest-latency quantiles, error
// counts). The repository's performance record is the benchmark that
// BENCHMARK.json declares (see bench/README.md); this driver is the
// hand-held probe beside it.
//
// Determinism is the design constraint everything else follows from.
// The traffic itself derives from a seed (synthetic commuters) or an
// on-disk .mstore, is globally time-sorted into one arrival order, and
// is partitioned across workers by hash(user) — the same contract the
// server's stream engine shards by — so each user's points are sent by
// exactly one worker in chronological order, whatever the concurrency.
// The TrafficChecksum in the result is computed over the per-worker
// streams in worker order before anything is sent: two runs with the
// same seed and shape produce the same checksum, the same points, the
// same per-user sequences, regardless of scheduling. Latency numbers
// are measured per worker into mergeable histograms (internal/obs) and
// merged order-invariantly, so the report is as reproducible as wall
// clocks allow.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mobipriv/internal/obs"
	otrace "mobipriv/internal/obs/trace"
	"mobipriv/internal/rng"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// Config parameterizes a load run.
type Config struct {
	// Target is the base URL of the mobiserve instance, e.g.
	// "http://localhost:8080".
	Target string

	// Store replays an existing .mstore dataset instead of synthesizing
	// traffic. When empty, synthetic commuter traffic is generated from
	// Seed/Users/Days/Sampling.
	Store string

	// Users, Days and Sampling shape the synthetic traffic (defaults:
	// 50 users, 1 day, 60s sampling — synth.DefaultCommuterConfig).
	Users    int
	Days     int
	Sampling time.Duration

	// Seed drives the synthetic generator. Two runs with equal Seed and
	// shape send byte-identical traffic.
	Seed int64

	// Rate is the target send rate in points/s across all workers;
	// 0 means as fast as the server accepts.
	Rate float64

	// Batch is the points per ingest request (default 256, matching
	// mobiserve's default).
	Batch int

	// Workers is the number of concurrent senders (default NumCPU,
	// capped at 8). Users are partitioned across workers by hash, so
	// per-user ordering survives any worker count.
	Workers int

	// MaxPoints truncates the (time-sorted) traffic, for smoke runs.
	MaxPoints int

	// Flush, when set, POSTs /flush after the traffic so withheld
	// points are forced out before the run is scored.
	Flush bool
}

// client is the HTTP client every request of a run goes through.
var client = &http.Client{Timeout: 30 * time.Second}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 50
	}
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Sampling <= 0 {
		c.Sampling = 60 * time.Second
	}
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	return c
}

// Result is the outcome of one load run.
type Result struct {
	// Traffic shape (deterministic for a fixed config).
	Points          int64
	TrafficChecksum string
	TargetRate      float64

	// Outcome.
	Errors     int64
	Accepted   int64
	Seconds    float64
	PointsPerS float64

	// Ingest-request latency quantiles, milliseconds.
	IngestP50ms float64
	IngestP95ms float64
	IngestP99ms float64
}

// rec is one point in arrival order.
type rec struct {
	user string
	pt   trace.Point
}

// Run executes one load run against cfg.Target and returns the scored
// result.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Target == "" {
		return nil, errors.New("load: no target URL")
	}
	streams, total, sum, err := buildTraffic(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Points:          total,
		TrafficChecksum: sum,
		TargetRate:      cfg.Rate,
	}

	var (
		mu       sync.Mutex
		firstErr error
		hists    = make([]*obs.Histogram, len(streams))
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		hists[w] = obs.NewHistogram()
		go func(w int) {
			defer wg.Done()
			// Each worker paces its own share of the global rate,
			// proportional to its stream size.
			rate := 0.0
			if cfg.Rate > 0 && total > 0 {
				rate = cfg.Rate * float64(len(streams[w])) / float64(total)
			}
			err := sendStream(ctx, cfg, w, streams[w], rate, hists[w], res)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if cfg.Flush {
		if err := postFlush(ctx, cfg); err != nil {
			return nil, err
		}
	}
	res.Seconds = time.Since(start).Seconds()
	if res.Seconds > 0 {
		res.PointsPerS = float64(res.Points) / res.Seconds
	}
	merged := obs.NewHistogram()
	for _, h := range hists {
		merged.Merge(h)
	}
	res.IngestP50ms = merged.Quantile(0.50) * 1e3
	res.IngestP95ms = merged.Quantile(0.95) * 1e3
	res.IngestP99ms = merged.Quantile(0.99) * 1e3
	return res, nil
}

// buildTraffic produces the per-worker send streams, the total point
// count and the traffic checksum — all deterministic for a fixed
// config.
func buildTraffic(ctx context.Context, cfg Config) ([][]rec, int64, string, error) {
	var d *trace.Dataset
	if cfg.Store != "" {
		st, err := store.Open(cfg.Store)
		if err != nil {
			return nil, 0, "", err
		}
		d, err = st.Load(ctx)
		st.Close()
		if err != nil {
			return nil, 0, "", err
		}
	} else {
		scfg := synth.DefaultCommuterConfig()
		scfg.Seed = cfg.Seed
		scfg.Users = cfg.Users
		scfg.Days = cfg.Days
		scfg.Sampling = cfg.Sampling
		gen, err := synth.Commuters(scfg)
		if err != nil {
			return nil, 0, "", err
		}
		d = gen.Dataset
	}

	var all []rec
	for _, tr := range d.Traces() {
		for _, p := range tr.Points {
			all = append(all, rec{user: tr.User, pt: p})
		}
	}
	// One global arrival order: by time, then user for a total order.
	// Each user's points keep their chronological sequence, which is
	// the ordering contract the server's engine relies on.
	sort.SliceStable(all, func(i, j int) bool {
		if !all[i].pt.Time.Equal(all[j].pt.Time) {
			return all[i].pt.Time.Before(all[j].pt.Time)
		}
		return all[i].user < all[j].user
	})
	if cfg.MaxPoints > 0 && len(all) > cfg.MaxPoints {
		all = all[:cfg.MaxPoints]
	}

	// Partition users across workers with the shared placement contract
	// (rng.Shard) — the function the stream engine shards by and the
	// multi-node router routes by — so one worker owns all of a user's
	// points whatever the concurrency.
	streams := make([][]rec, cfg.Workers)
	for _, r := range all {
		w := rng.Shard(r.user, cfg.Workers)
		streams[w] = append(streams[w], r)
	}
	h := fnv.New64a()
	for _, s := range streams {
		for _, r := range s {
			io.WriteString(h, r.user)
			fmt.Fprintf(h, "|%d|%.7f|%.7f\n", r.pt.Time.UnixMicro(), r.pt.Lat, r.pt.Lng)
		}
	}
	return streams, int64(len(all)), strconv.FormatUint(h.Sum64(), 16), nil
}

// sendStream sends one worker's stream in batches, pacing against rate
// (points/s; 0 = unpaced) and recording per-request latency. Every
// request carries a W3C traceparent derived from (seed, worker,
// request index) — a pure function of the traffic, so replaying the
// same run re-sends identical trace IDs and the server's deterministic
// sampler records the same requests every time.
func sendStream(ctx context.Context, cfg Config, worker int, stream []rec, rate float64, hist *obs.Histogram, res *Result) error {
	var sent int
	var reqIdx uint64
	var buf bytes.Buffer
	start := time.Now()
	for len(stream) > 0 {
		n := cfg.Batch
		if n > len(stream) {
			n = len(stream)
		}
		batch := stream[:n]
		stream = stream[n:]

		if rate > 0 {
			// Sleep until this batch is due under the worker's rate.
			due := start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}

		buf.Reset()
		for _, r := range batch {
			if err := traceio.WriteJSONLRecord(&buf, r.user, r.pt); err != nil {
				return err
			}
		}
		id := otrace.DeriveID(uint64(cfg.Seed), uint64(worker), reqIdx)
		tp := otrace.FormatTraceparent(id,
			otrace.DeriveSpanID(id, 0, "load.request", 0), true)
		reqIdx++
		reqStart := time.Now()
		accepted, err := postIngest(ctx, cfg, buf.Bytes(), tp)
		hist.ObserveDuration(time.Since(reqStart))
		if err != nil {
			atomic.AddInt64(&res.Errors, 1)
			if ctx.Err() != nil {
				return ctx.Err()
			}
		} else {
			atomic.AddInt64(&res.Accepted, accepted)
		}
		sent += n
	}
	return nil
}

func postIngest(ctx context.Context, cfg Config, body []byte, traceparent string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Target+"/ingest", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("traceparent", traceparent)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("load: ingest: HTTP %d", resp.StatusCode)
	}
	var out struct {
		Accepted int64 `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("load: ingest response: %w", err)
	}
	return out.Accepted, nil
}

func postFlush(ctx context.Context, cfg Config) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.Target+"/flush", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("load: flush: HTTP %d", resp.StatusCode)
	}
	return nil
}
