package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"mobipriv"
	"mobipriv/internal/router"
	"mobipriv/internal/stream"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// The serving workloads' per-layer ledger. The traced reference
// pipeline gives each layer on the ingest path its self time per
// point; the passes below it time the layers the pipeline leaves out
// (the engine's hand-off, the router, the HTTP floor) and count
// allocations, each over the first isolatedBodies bodies the run sent.

// isolatedBodies bounds the isolated passes: enough points for a
// steady per-point figure, few enough to stay cheap.
const isolatedBodies = 1000

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure times fn and counts the allocations made while it ran. The
// passes are serial, so the count is fn's own, plus whatever servers
// fn talks to in this process allocate.
func measure(fn func() error) (time.Duration, uint64, error) {
	m0, start := mallocs(), time.Now()
	err := fn()
	return time.Since(start), mallocs() - m0, err
}

// traceServing runs the reference pipeline traced and untraced over
// the traffic the run sent, leaves the traced pass's store at refPath,
// and reports the per-layer metrics.
func (b *bench) traceServing(ctx context.Context, w *workload, tr *traffic, sent []int, refPath string, r *result) (*replayResult, error) {
	rec := newRecorder()
	traced, err := replayServing(w, tr, sent, refPath, true, rec)
	if err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(b.outdir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	// What the spans themselves cost: the pipeline over a prefix of the
	// traffic, traced and untraced in turn. The box's speed drifts by
	// more than the spans cost, and only ever slows a pass down, so each
	// side is scored by its faster pass.
	prefix := make([]int, len(sent))
	for i, n := range sent {
		prefix[i] = min(n, isolatedBodies)
	}
	scratch := filepath.Join(filepath.Dir(refPath), "overhead.mstore")
	on, off := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	var untraced *replayResult
	for range 2 {
		if untraced, err = replayServing(w, tr, prefix, scratch, true, nil); err != nil {
			return nil, err
		}
		off = min(off, untraced.wall)
		res, err := replayServing(w, tr, prefix, scratch, true, newRecorder())
		if err != nil {
			return nil, err
		}
		on = min(on, res.wall)
	}
	self := rec.selfTimes()
	outPerIn := float64(traced.out) / float64(traced.in)
	r.set("traceio.decode_ns_per_point", self["traceio.decode"].perPoint())
	r.set("mechanism.push_ns_per_point", float64(self["mechanism.push"].selfNs)/float64(traced.in))
	r.set("mechanism.out_per_in", outPerIn)
	r.set("risk.observe_ns_per_out_point", self["risk.observe"].perPoint())
	r.set("store.append_ns_per_point", self["store.append"].perPoint())
	r.set("store.flush_ns_per_point", self["store.flush"].perPoint())
	r.set("store.bytes_per_point", float64(traced.fs.bytes)/float64(traced.out))
	r.set("store.blocks", float64(traced.blocks))
	r.set("store.syncs", float64(traced.fs.syncs))
	r.set("store.write_ops", float64(traced.fs.writes))
	r.set("bench.serial_points_per_s", float64(untraced.in)/off.Seconds())
	r.set("bench.trace_overhead_share", on.Seconds()/off.Seconds()-1)

	// The isolated passes replay a prefix of connection 0's first
	// cohort.
	c := &tr.conns[0]
	n := min(isolatedBodies, len(c.bodies), sent[0])
	var batches [][]stream.Update
	points := 0
	for i := range n {
		c.setCohort(i, 0)
		batch := make([]stream.Update, 0, bodyPoints)
		err := traceio.DecodeJSONL(bytes.NewReader(c.bodies[i]), func(user string, p trace.Point) error {
			batch = append(batch, stream.Update{User: user, Point: p})
			return nil
		})
		if err != nil {
			return nil, err
		}
		batches = append(batches, batch)
		points += len(batch)
	}
	perPoint := func(v float64) float64 { return v / float64(points) }

	_, decodeAllocs, err := measure(func() error {
		for _, body := range c.bodies[:n] {
			err := traceio.DecodeJSONL(bytes.NewReader(body), func(string, trace.Point) error { return nil })
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.set("traceio.decode_allocs_per_point", perPoint(float64(decodeAllocs)))

	pushWall, pushAllocs, err := enginePass(ctx, batches)
	if err != nil {
		return nil, err
	}
	r.set("stream.push_ns_per_point", perPoint(float64(pushWall)))
	r.set("stream.push_allocs_per_point", perPoint(float64(pushAllocs)))

	mechAllocs, err := mechanismPass(w, batches)
	if err != nil {
		return nil, err
	}
	r.set("mechanism.push_allocs_per_point", perPoint(float64(mechAllocs)))

	floor, err := httpFloorPass(c.bodies[:n])
	if err != nil {
		return nil, err
	}
	r.set("bench.http_floor_us_per_request", us(floor)/float64(n))

	if w.routed {
		var buf bytes.Buffer
		encodeWall, _, err := measure(func() error {
			for _, batch := range batches {
				buf.Reset()
				for _, u := range batch {
					if err := traceio.WriteJSONLRecord(&buf, u.User, u.Point); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		r.set("traceio.encode_ns_per_point", perPoint(float64(encodeWall)))

		fwdWall, fwdAllocs, err := routerPass(c.bodies[:n])
		if err != nil {
			return nil, err
		}
		r.set("router.forward_ns_per_point", perPoint(float64(fwdWall)))
		r.set("router.forward_allocs_per_point", perPoint(float64(fwdAllocs)))
	}

	// Reconciliation: what the layers' serial costs leave unexplained of
	// the workers' measured CPU per input point — HTTP stack, handler,
	// locks, scheduler, GC.
	ledgerNs := r.metrics["traceio.decode_ns_per_point"] + r.metrics["stream.push_ns_per_point"] +
		r.metrics["mechanism.push_ns_per_point"] +
		outPerIn*(r.metrics["risk.observe_ns_per_out_point"]+r.metrics["store.append_ns_per_point"]+r.metrics["store.flush_ns_per_point"])
	r.set("serve.unattributed_share", 1-ledgerNs/1e3/r.metrics["serve.cpu_us_per_point"])
	return traced, nil
}

// enginePass pushes the batches through a real stream.Engine with
// mobiserve's default shard count, the Passthrough mechanism and no
// sink: hash, partition, channel hand-off and shard loop, nothing else.
func enginePass(ctx context.Context, batches [][]stream.Update) (time.Duration, uint64, error) {
	eng, err := stream.NewEngine(stream.Config{Shards: sutShards},
		func(user string) stream.Mechanism { return stream.Passthrough{}.New(user) })
	if err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	wall, allocs, err := measure(func() error {
		for _, batch := range batches {
			if err := eng.Push(ctx, batch...); err != nil {
				return err
			}
		}
		return eng.Flush(ctx)
	})
	eng.Close()
	if rerr := <-done; err == nil {
		err = rerr
	}
	return wall, allocs, err
}

// mechanismPass counts the allocations of the workload's streaming
// mechanism over the batches.
func mechanismPass(w *workload, batches [][]stream.Update) (uint64, error) {
	m, err := mobipriv.FromSpec(w.mechanism)
	if err != nil {
		return 0, err
	}
	factory, _ := mobipriv.AsStreaming(m)
	mechs := make(map[string]mobipriv.StreamMechanism)
	_, allocs, err := measure(func() error {
		for _, batch := range batches {
			for _, u := range batch {
				mech := mechs[u.User]
				if mech == nil {
					mech = factory(u.User)
					mechs[u.User] = mech
				}
				mech.Push(u.Point)
			}
		}
		return nil
	})
	return allocs, err
}

// discard is an ingest endpoint that reads the body and accepts
// nothing, the way the stub upstreams and the HTTP floor need.
var discard = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	io.WriteString(w, `{"accepted":0}`+"\n")
})

// httpFloorPass POSTs the bodies over loopback to a handler that
// discards them: what a request costs before the system does anything.
func httpFloorPass(bodies [][]byte) (time.Duration, error) {
	srv := httptest.NewServer(discard)
	defer srv.Close()
	wall, _, err := measure(func() error {
		for _, body := range bodies {
			resp, err := srv.Client().Post(srv.URL, "application/x-ndjson", bytes.NewReader(body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil
	})
	return wall, err
}

// nullResponse is the least a handler can write to; it keeps the
// status.
type nullResponse struct {
	header http.Header
	status int
}

func (n *nullResponse) Header() http.Header         { return n.header }
func (n *nullResponse) Write(p []byte) (int, error) { return len(p), nil }
func (n *nullResponse) WriteHeader(status int)      { n.status = status }

// routerPass feeds the bodies to the router's own handler, in front of
// two stub upstreams that discard what they are sent: decode,
// re-batch, re-encode and the upstream round trips.
func routerPass(bodies [][]byte) (time.Duration, uint64, error) {
	a, b := httptest.NewServer(discard), httptest.NewServer(discard)
	defer a.Close()
	defer b.Close()
	rt, err := router.New(router.Config{Nodes: []string{a.URL, b.URL}})
	if err != nil {
		return 0, 0, err
	}
	h := rt.Handler()
	return measure(func() error {
		for _, body := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
			resp := &nullResponse{header: make(http.Header), status: http.StatusOK}
			h.ServeHTTP(resp, req)
			if resp.status != http.StatusOK {
				return fmt.Errorf("router handler: HTTP %d", resp.status)
			}
		}
		return nil
	})
}
