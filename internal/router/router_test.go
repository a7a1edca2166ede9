package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mobipriv/internal/obs"
	"mobipriv/internal/rng"
	"mobipriv/internal/serve"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// stubWorker is a minimal mobiserve stand-in: it counts the points of
// every NDJSON ingest per user and answers the rest of the API well
// enough for the router.
type stubWorker struct {
	mu     sync.Mutex
	points map[string]int // user -> points received
	order  map[string][]int64
	hs     *httptest.Server
}

func newStubWorker(t *testing.T) *stubWorker {
	t.Helper()
	w := &stubWorker{points: make(map[string]int), order: make(map[string][]int64)}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(rw http.ResponseWriter, r *http.Request) {
		n := 0
		err := traceio.DecodeJSONL(r.Body, func(user string, p trace.Point) error {
			w.mu.Lock()
			w.points[user]++
			w.order[user] = append(w.order[user], p.Time.UnixMicro())
			w.mu.Unlock()
			n++
			return nil
		})
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(rw).Encode(map[string]any{"accepted": n})
	})
	mux.HandleFunc("POST /flush", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(map[string]any{"flushed": true})
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /stats", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		total := 0
		for _, n := range w.points {
			total += n
		}
		w.mu.Unlock()
		json.NewEncoder(rw).Encode(map[string]any{"points_in": total})
	})
	w.hs = httptest.NewServer(mux)
	t.Cleanup(w.hs.Close)
	return w
}

func (w *stubWorker) snapshot() map[string]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	cp := make(map[string]int, len(w.points))
	for u, n := range w.points {
		cp[u] = n
	}
	return cp
}

// testRecords builds a deterministic stream of records across users.
func testRecords(users, perUser int) []struct {
	User string
	P    trace.Point
} {
	base := time.Date(2025, 6, 2, 9, 0, 0, 0, time.UTC)
	var recs []struct {
		User string
		P    trace.Point
	}
	for i := 0; i < perUser; i++ {
		for u := 0; u < users; u++ {
			recs = append(recs, struct {
				User string
				P    trace.Point
			}{fmt.Sprintf("user-%d", u), trace.P(40+float64(u)/100, 5+float64(i)/1e3, base.Add(time.Duration(i)*time.Minute))})
		}
	}
	return recs
}

func ndjson(recs []struct {
	User string
	P    trace.Point
}) *bytes.Buffer {
	var buf bytes.Buffer
	for _, r := range recs {
		traceio.WriteJSONLRecord(&buf, r.User, r.P)
	}
	return &buf
}

func startRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rt.Handler())
	t.Cleanup(hs.Close)
	return rt, hs
}

// TestNodeOfMatchesPlacementContract pins the router's user->node
// assignment to the shared helper: total, deterministic, and identical
// to rng.Shard for any node count, so router placement and engine
// sharding can never drift.
func TestNodeOfMatchesPlacementContract(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 5, 8} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
		}
		rt, err := New(Config{Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10000; i++ {
			u := fmt.Sprintf("user-%d-%d", r.Uint64(), i)
			got := rt.NodeOf(u)
			if got < 0 || got >= n {
				t.Fatalf("NodeOf(%q) = %d out of range [0,%d)", u, got, n)
			}
			if want := rng.Shard(u, n); got != want {
				t.Fatalf("NodeOf(%q) = %d, placement contract says %d", u, got, want)
			}
			if again := rt.NodeOf(u); again != got {
				t.Fatalf("NodeOf(%q) not deterministic", u)
			}
		}
	}
}

// TestIngestAssignmentIndependentOfOrderAndBatching replays the same
// records shuffled and under different batch sizes (including one that
// never fills, so everything rides the tail flush) and asserts every
// node sees exactly the same per-user point counts — assignment
// depends on the user alone, never on arrival order or where batch
// boundaries fall.
func TestIngestAssignmentIndependentOfOrderAndBatching(t *testing.T) {
	recs := testRecords(12, 5)
	want := make(map[int]map[string]int) // node -> user -> points
	for _, batch := range []int{1, 7, 64, 100000} {
		for _, shuffle := range []bool{false, true} {
			ws := []*stubWorker{newStubWorker(t), newStubWorker(t), newStubWorker(t)}
			_, hs := startRouter(t, Config{
				Nodes: []string{ws[0].hs.URL, ws[1].hs.URL, ws[2].hs.URL},
				Batch: batch,
			})
			rs := append([]struct {
				User string
				P    trace.Point
			}(nil), recs...)
			if shuffle {
				rand.New(rand.NewSource(int64(batch))).Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
			}
			resp, err := http.Post(hs.URL+"/ingest", "application/x-ndjson", ndjson(rs))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch=%d shuffle=%v: ingest status %d", batch, shuffle, resp.StatusCode)
			}
			for i, w := range ws {
				got := w.snapshot()
				if want[i] == nil {
					want[i] = got
					continue
				}
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Errorf("batch=%d shuffle=%v node %d saw %v, first run saw %v", batch, shuffle, i, got, want[i])
				}
			}
		}
	}
	// Sanity: the three nodes partition the users (none empty, all 12
	// users accounted for exactly once).
	users := 0
	for _, m := range want {
		if len(m) == 0 {
			t.Error("a node received no users — degenerate partition")
		}
		users += len(m)
	}
	if users != 12 {
		t.Errorf("nodes hold %d users total, want 12 (disjoint partition)", users)
	}
}

// TestIngestPreservesPerUserOrder pins the ordering half of the
// forwarding contract: however records interleave across users, each
// user's points reach its node in arrival order (batched sends to one
// node are sequential).
func TestIngestPreservesPerUserOrder(t *testing.T) {
	w := newStubWorker(t)
	_, hs := startRouter(t, Config{Nodes: []string{w.hs.URL}, Batch: 3})
	recs := testRecords(5, 20)
	resp, err := http.Post(hs.URL+"/ingest", "application/x-ndjson", ndjson(recs))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	for u, times := range w.order {
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Fatalf("user %s: point %d arrived out of order", u, i)
			}
		}
	}
}

// TestWorkerDownAtStartup pins the dead-partition behavior: with one
// node down before any traffic, /healthz is 503 naming the node, and
// an ingest that routes points to it fails 503 naming the node rather
// than silently dropping the partition.
func TestWorkerDownAtStartup(t *testing.T) {
	alive := newStubWorker(t)
	// A server that is immediately closed: connection refused, the
	// address provably dead.
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()
	deadName := strings.TrimPrefix(deadURL, "http://")

	_, hs := startRouter(t, Config{
		Nodes:        []string{alive.hs.URL, deadURL},
		Retries:      1,
		RetryBackoff: time.Millisecond,
	})

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with dead node: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), deadName) {
		t.Errorf("healthz body does not name the dead node %s: %q", deadName, body)
	}

	resp, err = http.Post(hs.URL+"/ingest", "application/x-ndjson", ndjson(testRecords(12, 1)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest with dead node: status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), deadName) {
		t.Errorf("ingest error does not name the dead node %s: %q", deadName, body)
	}
}

// TestWorkerDiesMidReplay pins the bounded-retry contract: when a
// worker dies partway through a replay, the router retries the
// configured number of times (visible in router_upstream_errors), then
// surfaces the failure to the client; points already forwarded to the
// other node are unaffected.
func TestWorkerDiesMidReplay(t *testing.T) {
	stable := newStubWorker(t)
	dying := newStubWorker(t)
	rt, hs := startRouter(t, Config{
		Nodes:        []string{stable.hs.URL, dying.hs.URL},
		Batch:        4,
		Retries:      2,
		RetryBackoff: time.Millisecond,
	})

	// First replay: both nodes healthy.
	recs := testRecords(10, 2)
	resp, err := http.Post(hs.URL+"/ingest", "application/x-ndjson", ndjson(recs))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: status %d", resp.StatusCode)
	}

	// The second node dies; the next replay must fail loudly, with the
	// retries accounted per attempt.
	dying.hs.Close()
	dyingName := strings.TrimPrefix(dying.hs.URL, "http://")
	resp, err = http.Post(hs.URL+"/ingest", "application/x-ndjson", ndjson(recs))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest with dying node: status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), dyingName) {
		t.Errorf("error does not name the dead node: %q", body)
	}
	errsVal, ok := rt.reg.Value("router_upstream_errors", labelNode(dyingName))
	if !ok {
		t.Fatal("router_upstream_errors series missing")
	}
	// 1 initial attempt + 2 retries on the first failing batch; the
	// request aborts after that batch, so exactly 3 attempts failed.
	if errsVal != 3 {
		t.Errorf("router_upstream_errors = %v, want 3 (1 attempt + 2 retries)", errsVal)
	}
	if v, _ := rt.reg.Value("router_upstream_errors", labelNode(strings.TrimPrefix(stable.hs.URL, "http://"))); v != 0 {
		t.Errorf("healthy node accrued %v upstream errors", v)
	}
}

// TestSlowWorkerTimesOutWithoutLeak pins the timeout contract: a hung
// worker fails the request once the per-request timeout fires, and the
// router leaks no goroutines doing it.
func TestSlowWorkerTimesOutWithoutLeak(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hang until the router gives up and drops the connection (a
		// real remote worker's goroutines would not be in this
		// process; unwinding on disconnect keeps the NumGoroutine
		// check about the ROUTER's goroutines). The body must be
		// drained first: net/http only watches for the disconnect —
		// and cancels r.Context() — once the request body is consumed.
		io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer func() { close(release); slow.Close() }()

	_, hs := startRouter(t, Config{
		Nodes:        []string{slow.URL},
		Retries:      -1, // no retries: one attempt, one timeout
		RetryBackoff: time.Millisecond,
		Timeout:      50 * time.Millisecond,
	})

	before := runtime.NumGoroutine()
	start := time.Now()
	resp, err := http.Post(hs.URL+"/ingest", "application/x-ndjson", ndjson(testRecords(3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow worker: status %d, want 503 (body %q)", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v — the 50ms per-request timeout did not fire", elapsed)
	}
	if !strings.Contains(string(body), "context deadline exceeded") {
		t.Errorf("error does not mention the timeout: %q", body)
	}

	// Give the transport's abandoned request goroutines a moment to
	// unwind (dropping the test client's own idle connections, which
	// are not the router's leak), then check nothing stayed behind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("goroutines grew from %d to %d after a timed-out upstream request\n%s", before, runtime.NumGoroutine(), buf)
}

func labelNode(name string) obs.Label { return obs.L("node", name) }

// statsWorker serves a canned worker /stats document, so the router's
// aggregation can be checked against hand-computable sums.
func statsWorker(t *testing.T, st serve.StatsResponse) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		json.NewEncoder(rw).Encode(map[string]any{"accepted": 0})
	})
	mux.HandleFunc("POST /flush", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(map[string]any{"flushed": true})
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("GET /stats", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(st)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

// snapshotOf builds a real histogram snapshot carrying exact state.
func snapshotOf(name string, durs ...time.Duration) obs.HistogramSnapshot {
	h := obs.NewHistogram()
	for _, d := range durs {
		h.ObserveDuration(d)
	}
	return h.Snapshot(name, "")
}

// TestStatsAggregation pins the fleet view: /stats sums the scalars
// across nodes, merges same-name histogram series exactly through
// their sparse-bin snapshots, reports the per-node breakdown, and
// keeps the series sorted by (name, labels). /flush fans out to every
// node and /metrics exposes the router's own counters.
func TestStatsAggregation(t *testing.T) {
	a := statsWorker(t, serve.StatsResponse{
		In: 100, Out: 90, Stalls: 3, Evicted: 1, ActiveUsers: 10, SinkPoints: 80,
		Latency: []obs.HistogramSnapshot{
			snapshotOf("stream_process_seconds", time.Millisecond, 2*time.Millisecond),
			snapshotOf("stream_queue_wait_seconds", 50*time.Microsecond),
		},
	})
	b := statsWorker(t, serve.StatsResponse{
		In: 40, Out: 40, Stalls: 1, Evicted: 0, ActiveUsers: 4, SinkPoints: 40,
		Latency: []obs.HistogramSnapshot{
			snapshotOf("stream_process_seconds", 4*time.Millisecond),
		},
	})
	rt, hs := startRouter(t, Config{Nodes: []string{a.URL, b.URL}})
	if got := len(rt.Nodes()); got != 2 {
		t.Fatalf("Nodes() has %d entries, want 2", got)
	}

	// A little traffic first, so the router's own forwarded counters
	// are nonzero in the aggregate.
	resp, err := http.Post(hs.URL+"/ingest", "application/x-ndjson", ndjson(testRecords(6, 2)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Post(hs.URL+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 2 || st.In != 140 || st.Out != 130 || st.Stalls != 4 ||
		st.Evicted != 1 || st.ActiveUsers != 14 || st.SinkPoints != 120 {
		t.Errorf("aggregated scalars wrong: %+v", st)
	}
	if st.Forwarded != 12 {
		t.Errorf("router_forwarded_points = %d, want 12", st.Forwarded)
	}
	if len(st.PerNode) != 2 || st.PerNode[0].In != 100 || st.PerNode[1].In != 40 {
		t.Errorf("per-node breakdown wrong: %+v", st.PerNode)
	}
	// The two stream_process_seconds series merged into one with the
	// exact combined state.
	var proc *obs.HistogramSnapshot
	for i := range st.Latency {
		if st.Latency[i].Name == "stream_process_seconds" && st.Latency[i].Labels == "" {
			proc = &st.Latency[i]
		}
	}
	if proc == nil {
		t.Fatalf("merged stats lack stream_process_seconds: %+v", st.Latency)
	}
	if proc.Count != 3 || proc.SumNs != uint64(7*time.Millisecond) {
		t.Errorf("merged stream_process_seconds count=%d sumNs=%d, want 3 / %d", proc.Count, proc.SumNs, 7*time.Millisecond)
	}
	for i := 1; i < len(st.Latency); i++ {
		l, r := st.Latency[i-1], st.Latency[i]
		if l.Name > r.Name || (l.Name == r.Name && l.Labels > r.Labels) {
			t.Errorf("latency series unsorted at %d: %q/%q after %q/%q", i, r.Name, r.Labels, l.Name, l.Labels)
		}
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "router_forwarded_points") {
		t.Errorf("/metrics does not expose router_forwarded_points:\n%s", body)
	}
}
