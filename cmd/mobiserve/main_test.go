package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mobipriv"
	"mobipriv/internal/risk"
	"mobipriv/internal/serve"
	"mobipriv/internal/serve/servetest"
	"mobipriv/internal/serve/worker"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// TestServeGeoIEquivalence is the serving-path half of the
// replay-equivalence acceptance: NDJSON in over HTTP, flush, and the
// sink file matches the batch mechanism byte for byte.
func TestServeGeoIEquivalence(t *testing.T) {
	d := servetest.Dataset(t, 6)
	sink := filepath.Join(t.TempDir(), "sink.jsonl")
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "geoi(epsilon=0.01,seed=7)", Shards: 4, Sink: sink})

	if got := servetest.PostNDJSON(t, hs.URL, d); got != d.TotalPoints() {
		t.Fatalf("accepted %d points, want %d", got, d.TotalPoints())
	}
	servetest.PostFlush(t, hs.URL)

	f, err := os.Open(sink)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := traceio.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := mobipriv.MustFromSpec("geoi(epsilon=0.01,seed=7)").Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	want := batch.Dataset
	if got.Len() != want.Len() {
		t.Fatalf("served %d users, batch %d", got.Len(), want.Len())
	}
	for _, wtr := range want.Traces() {
		gtr := got.ByUser(wtr.User)
		if gtr == nil || gtr.Len() != wtr.Len() {
			t.Fatalf("user %s: served %v, want %d points", wtr.User, gtr, wtr.Len())
		}
		for i := range wtr.Points {
			g, w := gtr.Points[i], wtr.Points[i]
			if g.Lat != w.Lat || g.Lng != w.Lng || !g.Time.Equal(w.Time) {
				t.Fatalf("user %s point %d: served %v, batch %v", wtr.User, i, g, w)
			}
		}
	}
}

func TestServeCSVIngestAndStats(t *testing.T) {
	d := servetest.Dataset(t, 3)
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "raw", Shards: 2})
	var body bytes.Buffer
	if err := traceio.WriteCSV(&body, d); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/ingest", "text/csv", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv ingest status %d", resp.StatusCode)
	}
	servetest.PostFlush(t, hs.URL)

	resp, err = http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.In != uint64(d.TotalPoints()) || st.Out != uint64(d.TotalPoints()) {
		t.Errorf("stats in=%d out=%d, want %d each", st.In, st.Out, d.TotalPoints())
	}
	if st.Mechanism != "raw" || len(st.Shards) != 2 || st.ActiveUsers != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServeOutStreams subscribes to /out before ingesting and reads the
// anonymized stream live.
func TestServeOutStreams(t *testing.T) {
	d := servetest.Dataset(t, 2)
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "raw", Shards: 1, Pseudonym: "p", Seed: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", hs.URL+"/out", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	servetest.PostNDJSON(t, hs.URL, d)
	servetest.PostFlush(t, hs.URL)

	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for seen < d.TotalPoints() && sc.Scan() {
		line := sc.Text()
		var rec struct {
			User string `json:"user"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad /out line %q: %v", line, err)
		}
		if !strings.HasPrefix(rec.User, "p") {
			t.Fatalf("output user %q not pseudonymized", rec.User)
		}
		seen++
	}
	if seen != d.TotalPoints() {
		t.Fatalf("streamed %d points, want %d", seen, d.TotalPoints())
	}
}

// TestShutdownEndsOutStreams pins what a graceful stop does to a live
// GET /out subscriber: its stream ends as soon as shutdown begins, so it
// does not hold up the wait for in-flight requests, and the points the
// drain flushes reach the sink but not the already-ended stream.
func TestShutdownEndsOutStreams(t *testing.T) {
	d := servetest.Dataset(t, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hostport := ln.Addr().String()
	addr := "http://" + hostport
	ln.Close()
	sink := filepath.Join(t.TempDir(), "sink.jsonl")
	// promesse withholds each user's trailing points until a flush, so
	// the drain has points to flush.
	srv, err := worker.New(worker.Config{Spec: "promesse", Shards: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve.ListenAndServe(hostport, srv.Handler(), srv.Close) }()
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(addr + "/out")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streamed := make(chan int, 1)
	go func() {
		n := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			n++
		}
		streamed <- n
	}()
	if accepted := servetest.PostNDJSON(t, addr, d); accepted != d.TotalPoints() {
		t.Fatalf("accepted %d points, want %d", accepted, d.TotalPoints())
	}

	start := time.Now()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ListenAndServe = %v", err)
	}
	// Shutdown gives in-flight requests 5 s; a stream that held it up
	// would cost all of them.
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("shutdown took %v with an /out subscriber connected", took)
	}
	var n int
	select {
	case n = <-streamed:
	case <-time.After(time.Second):
		t.Fatal("/out stream still open after shutdown")
	}

	f, err := os.Open(sink)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := traceio.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	// Smoothing changes the point count, so the engine's own output
	// total is the reference; the engine is closed, so it is final.
	out := int(srv.Stats().Out)
	if got.TotalPoints() != out {
		t.Errorf("sink holds %d points after the drain, want all %d published", got.TotalPoints(), out)
	}
	if n >= out {
		t.Errorf("/out streamed %d points, want fewer than the %d the drain completed", n, out)
	}
}

// TestServeStoreSink streams through the engine into a native store
// sink and checks the finalized store holds exactly the served points —
// the loop that lets batch tools read what the service wrote. Every user
// has more points than a default store block (4096) holds, so blocks
// are cut inside Append, under the sink lock, while ingest is running,
// and each user is read back across several blocks.
func TestServeStoreSink(t *testing.T) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 4
	cfg.Sampling = 10 * time.Second
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Dataset
	for _, tr := range d.Traces() {
		if tr.Len() <= 4096 {
			t.Fatalf("user %s has %d points; the test needs more than one default block per user", tr.User, tr.Len())
		}
	}
	path := filepath.Join(t.TempDir(), "sink.mstore")
	_, hs, stop := servetest.Start(t, worker.Config{Spec: "raw", Shards: 3, Sink: path, SinkFresh: true})

	servetest.PostNDJSON(t, hs.URL, d)
	servetest.PostFlush(t, hs.URL)
	stop() // commits the sink

	s, err := store.Open(path)
	if err != nil {
		t.Fatalf("sink store unreadable: %v", err)
	}
	defer s.Close()
	got, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.TotalPoints() != d.TotalPoints() {
		t.Fatalf("sink store = %v, want %v", got, d)
	}
	// The raw mechanism passes points through, so the store holds the
	// input up to the documented fixed-point quantization.
	for _, wtr := range d.Traces() {
		gtr := got.ByUser(wtr.User)
		if gtr == nil || gtr.Len() != wtr.Len() {
			t.Fatalf("user %s: stored %v, want %d points", wtr.User, gtr, wtr.Len())
		}
		for i := range wtr.Points {
			g, w := gtr.Points[i], wtr.Points[i]
			if g.Time.UnixMicro() != w.Time.UnixMicro() {
				t.Fatalf("user %s point %d: time %v, want %v", wtr.User, i, g.Time, w.Time)
			}
			if diff := g.Lat - w.Lat; diff > 6e-8 || diff < -6e-8 {
				t.Fatalf("user %s point %d: lat %v, want %v", wtr.User, i, g.Lat, w.Lat)
			}
			if diff := g.Lng - w.Lng; diff > 6e-8 || diff < -6e-8 {
				t.Fatalf("user %s point %d: lng %v, want %v", wtr.User, i, g.Lng, w.Lng)
			}
		}
	}
}

func getStats(t *testing.T, url string) serve.StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSinkReopenAcrossRestart is the continuous-ingest acceptance: two
// server lifecycles share one .mstore sink path, the second reopening
// what the first committed. The restarted server must report the
// recovery pass over /stats and /metrics, and the final store must hold
// the union — each lifecycle's /stats point count summing to the
// store's total.
func TestSinkReopenAcrossRestart(t *testing.T) {
	d := servetest.Dataset(t, 6)
	all := d.Traces()
	d1, err := trace.NewDataset(all[:3])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := trace.NewDataset(all[3:])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sink.mstore")

	// Lifecycle 1: -sink-fresh, the path must not exist yet.
	_, hs1, stop1 := servetest.Start(t, worker.Config{Spec: "raw", Shards: 3, Sink: path, SinkFresh: true})
	servetest.PostNDJSON(t, hs1.URL, d1)
	servetest.PostFlush(t, hs1.URL)
	st1 := getStats(t, hs1.URL)
	if st1.SinkPoints != uint64(d1.TotalPoints()) {
		t.Fatalf("lifecycle 1 sink_store_points = %d, want %d", st1.SinkPoints, d1.TotalPoints())
	}
	stop1()

	// -sink-fresh over an existing store must refuse, not overwrite.
	if _, err := worker.New(worker.Config{Spec: "raw", Shards: 1, Sink: path, SinkFresh: true}); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("fresh sink over existing store: err = %v, want ErrExists", err)
	}

	// Lifecycle 2: default reopen-for-append extends the same store.
	_, hs2, stop2 := servetest.Start(t, worker.Config{Spec: "raw", Shards: 3, Sink: path})
	servetest.PostNDJSON(t, hs2.URL, d2)
	servetest.PostFlush(t, hs2.URL)
	st2 := getStats(t, hs2.URL)
	if st2.SinkPoints != uint64(d2.TotalPoints()) {
		t.Fatalf("lifecycle 2 sink_store_points = %d, want %d", st2.SinkPoints, d2.TotalPoints())
	}
	if st2.SinkRecov != 1 || st2.SinkGens != 1 {
		t.Fatalf("lifecycle 2 recovery stats = runs %d gens %d, want 1 committed generation recovered once", st2.SinkRecov, st2.SinkGens)
	}
	// The same counters must be scrapable from /metrics.
	resp, err := http.Get(hs2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{"store_recovery_runs 1", "store_generations 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	stop2()

	// The finalized store holds both lifecycles' output, and the per-
	// lifecycle /stats counts sum to its total.
	s, err := store.Open(path)
	if err != nil {
		t.Fatalf("reopened sink store unreadable: %v", err)
	}
	defer s.Close()
	if g := s.Manifest().Generations; g != 2 {
		t.Errorf("store has %d generations, want 2", g)
	}
	got, err := s.Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("store holds %d users, want %d", got.Len(), d.Len())
	}
	if total := uint64(got.TotalPoints()); total != st1.SinkPoints+st2.SinkPoints {
		t.Fatalf("store holds %d points, lifecycles reported %d + %d", total, st1.SinkPoints, st2.SinkPoints)
	}
	for _, wtr := range d.Traces() {
		gtr := got.ByUser(wtr.User)
		if gtr == nil || gtr.Len() != wtr.Len() {
			t.Fatalf("user %s: stored %v, want %d points", wtr.User, gtr, wtr.Len())
		}
	}
}

func TestServeRejectsNonStreamingSpec(t *testing.T) {
	_, err := worker.New(worker.Config{Spec: "pipeline"})
	if err == nil || !strings.Contains(err.Error(), "streaming-capable") {
		t.Fatalf("err = %v, want streaming-capable listing", err)
	}
	if _, err := worker.New(worker.Config{Spec: "nope"}); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

func TestServeBadIngest(t *testing.T) {
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "raw"})
	resp, err := http.Post(hs.URL+"/ingest", "application/x-ndjson", strings.NewReader("{not json\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ingest status %d, want 400", resp.StatusCode)
	}
}

// riskDataset synthesizes multi-day commuters: the home/work dwells
// recur every day, which is exactly the recurrence the risk monitor
// flags.
func riskDataset(t *testing.T, users, days int) *trace.Dataset {
	t.Helper()
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = users
	cfg.Days = days
	cfg.Sampling = 2 * time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Dataset
}

func getRisk(t *testing.T, url string) worker.RiskResponse {
	t.Helper()
	resp, err := http.Get(url + "/risk")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/risk status %d", resp.StatusCode)
	}
	var rr worker.RiskResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestServeRiskFlagsRawNotPromesse is the acceptance check for the live
// monitor: serving raw data, every multi-day commuter is flagged for a
// recurrent POI; serving promesse-smoothed data, nobody is, because the
// published points are spaced at epsilon (100 m) and never dwell within
// the monitor's 50 m stay diameter.
func TestServeRiskFlagsRawNotPromesse(t *testing.T) {
	d := riskDataset(t, 3, 3)

	// Raw path, with pseudonymized output: the monitor must still key
	// risk by the INPUT identity — that is who the operator can warn.
	_, hs, stop := servetest.Start(t, worker.Config{Spec: "raw", Shards: 3, Pseudonym: "p", Seed: 1, RiskMinDays: 2})
	servetest.PostNDJSON(t, hs.URL, d)
	servetest.PostFlush(t, hs.URL)

	rr := getRisk(t, hs.URL)
	if rr.MinDays != 2 || rr.Users != d.Len() {
		t.Fatalf("risk = %+v, want min_days=2 users=%d", rr, d.Len())
	}
	if rr.Flagged != d.Len() {
		t.Fatalf("raw serving flagged %d/%d users, want all: %+v", rr.Flagged, d.Len(), rr.Risks)
	}
	for _, ur := range rr.Risks {
		if !ur.Flagged || ur.MaxDays < 2 || ur.TopPOI == nil {
			t.Errorf("user %s: %+v, want flagged with a top POI across >=2 days", ur.User, ur)
		}
		if d.ByUser(ur.User) == nil {
			t.Errorf("risk keyed by %q, want an input (pre-pseudonym) user", ur.User)
		}
	}

	// Single-user view and /stats counts.
	one := d.Traces()[0].User
	resp, err := http.Get(hs.URL + "/risk?user=" + one)
	if err != nil {
		t.Fatal(err)
	}
	var ur risk.UserRisk
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ur.User != one || !ur.Flagged {
		t.Errorf("/risk?user=%s = %+v", one, ur)
	}
	if resp, err = http.Get(hs.URL + "/risk?user=no-such-user"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown user status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.RiskUsers != rr.Users || st.RiskFlagged != rr.Flagged || st.RiskFlagged != d.Len() {
		t.Errorf("stats risk counts = %d/%d, want %d/%d", st.RiskUsers, st.RiskFlagged, rr.Users, rr.Flagged)
	}

	// Reset clears the slate.
	resp, err = http.Post(hs.URL+"/risk/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr = getRisk(t, hs.URL); rr.Users != 0 || rr.Flagged != 0 {
		t.Errorf("after reset: %+v, want empty", rr)
	}
	stop()

	// Promesse path: same input, nobody flagged.
	_, hs2, _ := servetest.Start(t, worker.Config{Spec: "promesse", Shards: 3, RiskMinDays: 2})
	servetest.PostNDJSON(t, hs2.URL, d)
	servetest.PostFlush(t, hs2.URL)
	rr = getRisk(t, hs2.URL)
	if rr.Flagged != 0 {
		t.Fatalf("promesse serving flagged %d users, want 0: %+v", rr.Flagged, rr.Risks)
	}
}

// TestServeRiskDisabled pins that -risk-min-days 0 removes the monitor
// and its endpoints 404.
func TestServeRiskDisabled(t *testing.T) {
	srv, hs, _ := servetest.Start(t, worker.Config{Spec: "raw", Shards: 1})
	if strings.Contains(srv.String(), "/risk") {
		t.Fatalf("monitor built with RiskMinDays=0: %s", srv)
	}
	for _, req := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(hs.URL + "/risk") },
		func() (*http.Response, error) { return http.Post(hs.URL+"/risk/reset", "", nil) },
	} {
		resp, err := req()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status %d, want 404 when disabled", resp.StatusCode)
		}
	}
}
