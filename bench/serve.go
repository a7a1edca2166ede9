package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"mobipriv/internal/obs"
	"mobipriv/internal/stats"
	"mobipriv/internal/stream"
)

// A serving run: set up traffic and the system under test, drive the
// paced and the saturation phase, flush, stop the processes, then
// check what they stored against the reference pipeline.

// sut is the running system under test of a serving workload.
type sut struct {
	addr    string  // where the client sends
	workers []*proc // mobiserve processes
	waddrs  []string
	sinks   []string // the workers' .mstore sinks
	router  *proc    // nil unless the workload is routed
}

// startSUT launches the workload's processes in dir with their default
// flags and waits until they answer /healthz.
func (b *bench) startSUT(ctx context.Context, w *workload, dir string) (*sut, error) {
	s := &sut{}
	n := 1
	if w.routed {
		n = 2
	}
	for i := range n {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		sink := filepath.Join(dir, fmt.Sprintf("sink%d.mstore", i))
		p, err := startProc(dir, fmt.Sprintf("mobiserve%d", i), b.bin("mobiserve"),
			"-addr", addr, "-mechanism", w.mechanism, "-sink", sink)
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, p)
		s.waddrs = append(s.waddrs, addr)
		s.sinks = append(s.sinks, sink)
	}
	for _, a := range s.waddrs {
		if err := waitHealthy(ctx, a); err != nil {
			return nil, err
		}
	}
	s.addr = s.waddrs[0]
	if w.routed {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s.router, err = startProc(dir, "mobirouter", b.bin("mobirouter"),
			"-addr", addr, "-nodes", strings.Join(s.waddrs, ","))
		if err != nil {
			return nil, err
		}
		if err := waitHealthy(ctx, addr); err != nil {
			return nil, err
		}
		s.addr = addr
	}
	return s, nil
}

// workerStats is the part of mobiserve's /stats the ledger reads.
type workerStats struct {
	In        int64                   `json:"points_in"`
	Stalls    int64                   `json:"push_stalls"`
	HeapInuse float64                 `json:"heap_inuse_bytes"`
	GCRuns    int64                   `json:"gc_runs"`
	Shards    []stream.ShardStats     `json:"shards"`
	Latency   []obs.HistogramSnapshot `json:"latency"`
}

// routerStats is the part of mobirouter's /stats the ledger reads.
type routerStats struct {
	UpErrors int64                   `json:"router_upstream_errors"`
	Latency  []obs.HistogramSnapshot `json:"latency"`
}

// sutReport is what the system under test said about itself and cost.
type sutReport struct {
	workers   []workerStats
	router    routerStats
	workerUse usage // summed over the workers
	routerUse usage
	drain     time.Duration // POST /flush to the last process's exit
}

// drain flushes the system, reads its /stats and stops it: the router
// first, then the workers, each with SIGTERM so that the sinks commit.
func (s *sut) drain(ctx context.Context) (*sutReport, error) {
	rep := &sutReport{workers: make([]workerStats, len(s.workers))}
	start := time.Now()
	if err := postOK(ctx, "http://"+s.addr+"/flush"); err != nil {
		return nil, err
	}
	for i, a := range s.waddrs {
		if err := getJSON(ctx, "http://"+a+"/stats", &rep.workers[i]); err != nil {
			return nil, err
		}
	}
	if s.router != nil {
		if err := getJSON(ctx, "http://"+s.addr+"/stats", &rep.router); err != nil {
			return nil, err
		}
		var err error
		if rep.routerUse, err = s.router.stop(); err != nil {
			return nil, err
		}
	}
	for _, p := range s.workers {
		u, err := p.stop()
		if err != nil {
			return nil, err
		}
		rep.workerUse.cpu += u.cpu
		rep.workerUse.rssMB += u.rssMB
	}
	rep.drain = time.Since(start)
	return rep, nil
}

// quantileMs merges the named histogram series (restricted to one
// label signature unless labels is empty) over several /stats
// documents — exactly, through the snapshots' bins — and returns a
// quantile of the union in milliseconds.
func quantileMs(docs [][]obs.HistogramSnapshot, name, labels string, q float64) float64 {
	h := obs.NewHistogram()
	for _, doc := range docs {
		for _, s := range doc {
			if s.Name == name && (labels == "" || s.Labels == labels) {
				h.MergeSnapshot(s)
			}
		}
	}
	if h.Count() == 0 {
		return 0
	}
	return h.Quantile(q) * 1e3
}

// selfCPU is the benchmark process's own CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bench) runServing(ctx context.Context, w *workload, r *result) error {
	// Set-up is the traffic — generated, sorted, encoded — and the
	// system under test, started and healthy. Only the last set-up's
	// system is used; the earlier ones are stopped as the next begins.
	var (
		tr *traffic
		s  *sut
	)
	dir, setups, err := b.repeatSetup(w, func(dir string) error {
		killLive()
		day, _, err := baseDay(w, b.seed, b.scale)
		if err != nil {
			return err
		}
		if tr, err = buildTraffic(day, b.conns); err != nil {
			return err
		}
		s, err = b.startSUT(ctx, w, dir)
		return err
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r.set("setup_s", stats.Median(setups))
	r.note("traffic_checksum %s (%d points per cohort, %d users, %d connections)",
		tr.checksum, tr.points, len(tr.users), b.conns)

	// A third of the time goes to the paced phase; the saturation phase
	// gets the points the workload's nominal rate moves in the rest.
	seconds := b.measuredSeconds().Seconds()
	pacedFor := time.Duration(seconds / 3 * float64(time.Second))
	satPoints := int(seconds * 2 / 3 * w.satRate)

	// The client allocates little per request; a collection in the
	// middle of a phase would only steal CPU from the system under test.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	conns := newConns(tr, s.addr)
	cpu0 := selfCPU()
	runPaced(ctx, conns, tr.points, pacedFor)
	var afterPaced workerStats
	if err := getJSON(ctx, "http://"+s.waddrs[0]+"/stats", &afterPaced); err != nil {
		return err
	}
	runSaturation(ctx, conns, tr.points, satPoints)
	clientCPU := selfCPU() - cpu0
	debug.SetGCPercent(gcPercent)
	if err := ctx.Err(); err != nil {
		return err
	}
	rep, err := s.drain(ctx)
	if err != nil {
		return err
	}

	sentPts, err := scoreClient(conns, clientCPU, rep, r)
	if err != nil {
		return err
	}
	scoreSUT(rep, afterPaced, float64(sentPts), r)

	// Correctness: the sink (both nodes' sinks together, when routed)
	// must hold exactly what the reference pipeline produces from the
	// same traffic, and the server must have counted every point on the
	// shard the placement contract names.
	sent := make([]int, len(conns))
	for i, c := range conns {
		sent[i] = c.next
	}
	got, err := digestStores(ctx, s.sinks...)
	if err != nil {
		return err
	}
	refPath := filepath.Join(dir, "reference.mstore")
	var ref *replayResult
	if b.trace {
		ref, err = b.traceServing(ctx, w, tr, sent, refPath, r)
	} else {
		ref, err = replayServing(w, tr, sent, refPath, false, nil)
	}
	if err != nil {
		return err
	}
	want, err := digestStores(ctx, refPath)
	if err != nil {
		return err
	}
	var statsIn int64
	var perShardIn [sutShards]int64
	for _, ws := range rep.workers {
		statsIn += ws.In
		for i, sh := range ws.Shards {
			perShardIn[i] += int64(sh.In)
		}
	}
	r.check("sink store equals the reference pipeline's", got == want,
		"sink %+v, reference %+v", got, want)
	r.check("reference pipeline consumed the points sent", ref.in == sentPts,
		"sent %d, replayed %d", sentPts, ref.in)
	r.check("/stats points_in equals points sent", statsIn == int64(sentPts),
		"sent %d, points_in %d", sentPts, statsIn)
	r.check("per-shard points_in follow the placement contract", perShardIn == ref.perShard,
		"server %v, rng.Shard %v", perShardIn, ref.perShard)
	return nil
}

// scoreClient turns the client's samples into metrics and returns the
// number of points sent.
func scoreClient(conns []*conn, clientCPU time.Duration, rep *sutReport, r *result) (sentPts int, err error) {
	var (
		acceptedPts, satAccepted, requests, failedReqs int
		lat, late                                      []float64
		satEnd                                         time.Duration
	)
	for _, c := range conns {
		prevDone := time.Duration(0)
		for _, s := range c.paced {
			lat = append(lat, (s.done-s.due).Seconds()*1e3)
			// A request can only go out once the previous reply is in;
			// what the generator itself adds is counted from then.
			late = append(late, (s.sent-max(s.due, prevDone)).Seconds()*1e3)
			prevDone = s.done
		}
		for _, s := range c.sat {
			satAccepted += s.accepted
			satEnd = max(satEnd, s.done)
		}
		for _, s := range slices.Concat(c.paced, c.sat) {
			requests++
			sentPts += s.points
			acceptedPts += s.accepted
			if !s.ok {
				failedReqs++
			}
		}
	}
	if len(lat) == 0 || satAccepted == 0 {
		return 0, fmt.Errorf("no requests completed (%d paced, %d points accepted under saturation)", len(lat), satAccepted)
	}
	r.attempted += requests
	r.failed += failedReqs
	r.check("points accepted by the server equal points sent", acceptedPts == sentPts,
		"sent %d, accepted %d", sentPts, acceptedPts)

	// Exact quantiles of the raw samples, not of log buckets.
	lateP99 := stats.Quantile(late, 0.99)
	r.set("points_per_s", stats.Median(chunkRates(conns, satChunks)))
	r.set("p50_ms", stats.Median(lat))
	r.set("points_per_s_mean", float64(satAccepted)/satEnd.Seconds())
	r.set("ingest_p99_ms", stats.Quantile(lat, 0.99))
	r.set("ingest_samples", float64(len(lat)))
	r.set("load.requests", float64(requests))
	r.set("load.late_p99_ms", lateP99)
	r.set("load.client_cpu_us_per_point", us(clientCPU)/float64(sentPts))
	share := clientCPU.Seconds() / (clientCPU + rep.workerUse.cpu + rep.routerUse.cpu).Seconds()
	r.set("load.client_cpu_share", share)
	// The instrument must not be the bottleneck: a run whose client took
	// more than 15% of the CPU, or was itself more than a millisecond
	// late with its paced requests, is marked invalid.
	valid := share <= 0.15 && lateP99 <= 1
	r.set("load.valid", b2f(valid))
	if !valid {
		r.note("INVALID: client CPU share %.3f (limit 0.15), paced send lateness p99 %.3f ms (limit 1)",
			share, lateP99)
	}
	return sentPts, nil
}

// scoreSUT turns the system's resource usage and its own /stats into
// metrics; points is the number of points it was sent.
func scoreSUT(rep *sutReport, afterPaced workerStats, points float64, r *result) {
	r.set("cpu_us_per_point", us(rep.workerUse.cpu+rep.routerUse.cpu)/points)
	r.set("peak_rss_mb", rep.workerUse.rssMB+rep.routerUse.rssMB)
	r.set("serve.cpu_us_per_point", us(rep.workerUse.cpu)/points)
	r.set("serve.drain_s", rep.drain.Seconds())

	var latency [][]obs.HistogramSnapshot
	var stalls, gcRuns int64
	var heapMB float64
	highWater := 0
	for _, ws := range rep.workers {
		latency = append(latency, ws.Latency)
		stalls += ws.Stalls
		gcRuns += ws.GCRuns
		heapMB += ws.HeapInuse / (1 << 20)
		for _, sh := range ws.Shards {
			highWater = max(highWater, sh.QueueHighWater)
		}
	}
	r.set("serve.http_ingest_p50_ms", quantileMs(latency, "mobiserve_http_request_seconds", `route="/ingest"`, 0.50))
	r.set("serve.http_ingest_p99_ms", quantileMs(latency, "mobiserve_http_request_seconds", `route="/ingest"`, 0.99))
	r.set("stream.queue_wait_p50_ms", quantileMs(latency, "stream_queue_wait_seconds", "", 0.50))
	r.set("stream.queue_wait_p99_ms", quantileMs(latency, "stream_queue_wait_seconds", "", 0.99))
	r.set("stream.process_p99_ms", quantileMs(latency, "stream_process_seconds", "", 0.99))
	r.set("stream.sink_p99_ms", quantileMs(latency, "stream_sink_seconds", "", 0.99))
	r.set("stream.push_stalls", float64(stalls))
	r.set("stream.queue_high_water", float64(highWater))
	r.set("serve.gc_runs", float64(gcRuns))
	r.set("serve.heap_inuse_mb", heapMB)

	// Skew is read after the paced phase, when the first worker has seen
	// only cohort 0's hot users; later cohorts hash elsewhere and would
	// flatten a cumulative figure while each still queues on its own hot
	// shards.
	var maxIn, sumIn float64
	for _, sh := range afterPaced.Shards {
		maxIn = max(maxIn, float64(sh.In))
		sumIn += float64(sh.In)
	}
	if sumIn > 0 {
		r.set("stream.shard_skew", maxIn/(sumIn/float64(len(afterPaced.Shards))))
	}
	r.set("router.cpu_us_per_point", us(rep.routerUse.cpu)/points)
	r.set("router.upstream_p99_ms", quantileMs([][]obs.HistogramSnapshot{rep.router.Latency}, "router_upstream_seconds", "", 0.99))
	r.set("router.upstream_errors", float64(rep.router.UpErrors))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
