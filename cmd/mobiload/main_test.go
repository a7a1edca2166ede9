package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// stub mimics mobiserve's ingest/flush/stats wire contract.
func stub(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		n := int64(0)
		if err := traceio.DecodeJSONL(r.Body, func(string, trace.Point) error { n++; return nil }); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(map[string]int64{"accepted": n})
	})
	mux.HandleFunc("POST /flush", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]bool{"flushed": true})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"latency":[`+
			`{"name":"stream_process_seconds","count":3,"p50_s":0.001,"p95_s":0.002,"p99_s":0.003},`+
			`{"name":"mobiserve_http_request_seconds","labels":"route=\"/risk\"","count":0}]}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunChecksumRepeats pins the CLI contract: a run against a server
// prints the summary line and the server's /stats latency lines, leaves
// out the histograms that recorded nothing, and two identical runs
// print the same traffic checksum.
func TestRunChecksumRepeats(t *testing.T) {
	srv := stub(t)

	runOnce := func() string {
		var sb strings.Builder
		err := run([]string{
			"-target", srv.URL,
			"-users", "6",
			"-seed", "9",
			"-max-points", "400",
			"-workers", "2",
		}, &sb)
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	out1 := runOnce()
	if !strings.Contains(out1, "sent 400 points") || !strings.Contains(out1, " 0 errors") {
		t.Fatalf("unexpected summary: %q", out1)
	}
	if !strings.Contains(out1, "stream_process_seconds: n=3 p50 1.00ms p95 2.00ms p99 3.00ms") {
		t.Fatalf("output lacks the /stats latency line: %q", out1)
	}
	if strings.Contains(out1, "mobiserve_http_request_seconds") || strings.Contains(out1, "n=0") {
		t.Fatalf("output prints a histogram with no samples: %q", out1)
	}

	sumRe := regexp.MustCompile(`checksum ([0-9a-f]+)`)
	m1 := sumRe.FindStringSubmatch(out1)
	m2 := sumRe.FindStringSubmatch(runOnce())
	if m1 == nil || m2 == nil || m1[1] != m2[1] {
		t.Fatalf("checksums differ or missing: %v vs %v", m1, m2)
	}
}

// TestRunBadTarget pins the error path: an unreachable target fails
// with a nonzero error, not a hang.
func TestRunBadTarget(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-target", "http://127.0.0.1:1", "-users", "2", "-max-points", "10", "-no-flush"}, &sb)
	// Every ingest fails; the run itself still completes with errors
	// counted rather than aborting on the first refused connection.
	// (A failed final /flush IS a hard error, hence -no-flush here.)
	if err != nil {
		t.Fatalf("run returned hard error for refused connections: %v", err)
	}
	if !strings.Contains(sb.String(), "errors") {
		t.Fatalf("output missing error count: %q", sb.String())
	}
}
