package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mobipriv/internal/load"
	"mobipriv/internal/serve"
	"mobipriv/internal/serve/servetest"
	"mobipriv/internal/serve/worker"
)

// scrape fetches /metrics and parses the exposition into a map from
// series (name plus label block) to value, validating the overall
// line discipline along the way.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		series, valStr := line[:sp], line[sp+1:]
		var v float64
		switch valStr {
		case "+Inf":
			v = math.Inf(1)
		default:
			var err error
			v, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("unparseable value in line %q: %v", line, err)
			}
		}
		out[series] = v
	}
	return out
}

// TestMetricsEndpoint pins /metrics: the exposition parses, carries
// HELP/TYPE lines, and the engine counters reflect the ingested
// traffic exactly.
func TestMetricsEndpoint(t *testing.T) {
	d := servetest.Dataset(t, 5)
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "raw", Shards: 4, RiskMinDays: 2})

	if got := servetest.PostNDJSON(t, hs.URL, d); got != d.TotalPoints() {
		t.Fatalf("accepted %d, want %d", got, d.TotalPoints())
	}
	servetest.PostFlush(t, hs.URL)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# HELP stream_points_in_total ",
		"# TYPE stream_points_in_total counter",
		"# TYPE stream_active_users gauge",
		"# TYPE mobiserve_http_request_seconds histogram",
		`mobiserve_http_request_seconds_bucket{route="/ingest",le="+Inf"}`,
		`stream_shard_queue_depth{shard="0"}`,
		"risk_users ",
		"mobiserve_sink_write_failures_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	m := parseExposition(t, text)
	if got := m["stream_points_in_total"]; got != float64(d.TotalPoints()) {
		t.Fatalf("stream_points_in_total = %v, want %d", got, d.TotalPoints())
	}
	if got := m["stream_points_out_total"]; got != float64(d.TotalPoints()) {
		// raw republishes every point.
		t.Fatalf("stream_points_out_total = %v, want %d", got, d.TotalPoints())
	}
	if got := m[`mobiserve_http_requests_total{route="/ingest"}`]; got != 1 {
		t.Fatalf("ingest request count = %v, want 1", got)
	}
	if got := m[`mobiserve_http_request_seconds_count{route="/ingest"}`]; got != 1 {
		t.Fatalf("ingest latency count = %v, want 1", got)
	}
}

// TestStatsMetricsEquivalence is the acceptance check that /stats and
// /metrics cannot disagree: every scalar in the JSON view equals the
// corresponding registry series, because the JSON view reads the
// registry.
func TestStatsMetricsEquivalence(t *testing.T) {
	d := servetest.Dataset(t, 6)
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "promesse(epsilon=150)", Shards: 3, RiskMinDays: 2})
	servetest.PostNDJSON(t, hs.URL, d)
	servetest.PostFlush(t, hs.URL)

	// Scrape metrics FIRST, then /stats: counters are monotone and all
	// traffic already arrived, so the values must agree exactly.
	m := scrape(t, hs.URL)
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	checks := []struct {
		series string
		stats  float64
	}{
		{"stream_points_in_total", float64(st.In)},
		{"stream_points_out_total", float64(st.Out)},
		{"stream_evicted_users_total", float64(st.Evicted)},
		{"stream_push_stalls_total", float64(st.Stalls)},
		{"stream_active_users", float64(st.ActiveUsers)},
		{"mobiserve_dropped_subscriber_points_total", float64(st.DroppedSub)},
		{"mobiserve_sink_write_failures_total", float64(st.SinkFails)},
		{"risk_users", float64(st.RiskUsers)},
		{"risk_flagged_users", float64(st.RiskFlagged)},
	}
	for _, c := range checks {
		got, ok := m[c.series]
		if !ok {
			t.Errorf("series %s absent from /metrics", c.series)
			continue
		}
		if got != c.stats {
			t.Errorf("%s: /metrics %v != /stats %v", c.series, got, c.stats)
		}
	}
	if st.In != uint64(d.TotalPoints()) {
		t.Fatalf("stats points_in = %d, want %d", st.In, d.TotalPoints())
	}
}

// TestPprofOptIn pins that the debug endpoints exist only behind
// -pprof.
func TestPprofOptIn(t *testing.T) {
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "raw", Shards: 1, Pprof: true})
	resp, err := http.Get(hs.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d with -pprof", resp.StatusCode)
	}

	_, hs2, _ := servetest.Start(t, worker.Config{Spec: "raw", Shards: 1})
	resp, err = http.Get(hs2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof endpoints mounted without -pprof")
	}
}

// TestLoadSmoke is the CI load-smoke: an in-process mobiserve driven
// by a short deterministic internal/load run. It asserts the driver
// and server agree on the point count, the run reports nonzero
// points/s, and /metrics parses afterwards with every shard batch
// timed through all three engine stages (queue-wait, process, sink).
func TestLoadSmoke(t *testing.T) {
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "geoi(epsilon=0.01,seed=7)", Shards: 4, RiskMinDays: 2, TraceSample: 1})

	res, err := load.Run(context.Background(), load.Config{
		Target:    hs.URL,
		Users:     10,
		Seed:      3,
		MaxPoints: 2000,
		Batch:     200,
		Workers:   4,
		Flush:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points == 0 || res.Accepted != res.Points || res.Errors != 0 {
		t.Fatalf("bad run: %+v", res)
	}
	if res.PointsPerS <= 0 {
		t.Fatalf("points_per_s = %v", res.PointsPerS)
	}

	m := scrape(t, hs.URL)
	if got := m["stream_points_in_total"]; got != float64(res.Points) {
		t.Fatalf("server ingested %v points, driver sent %d", got, res.Points)
	}
	qw, pr, sk := m["stream_queue_wait_seconds_count"], m["stream_process_seconds_count"], m["stream_sink_seconds_count"]
	if qw == 0 || qw != pr || pr != sk {
		t.Fatalf("stage counts diverge: queue-wait %v process %v sink %v", qw, pr, sk)
	}
}
