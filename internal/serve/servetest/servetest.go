// Package servetest runs worker.Server workers in-process for tests: a
// worker behind an httptest listener, a small synthetic dataset, and
// the two client calls every serving test makes (POST /ingest and
// POST /flush). The worker tests in cmd/mobiserve and the fleet tests
// in internal/serve share it, so a worker is started, fed and stopped
// one way everywhere.
package servetest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mobipriv/internal/serve/worker"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// Start builds a worker from cfg and serves it on a loopback listener.
// stop closes the listener, then the worker (which commits a .mstore
// sink); it may be called early and more than once, and runs at
// cleanup in any case.
func Start(t testing.TB, cfg worker.Config) (srv *worker.Server, hs *httptest.Server, stop func()) {
	t.Helper()
	srv, err := worker.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs = httptest.NewServer(srv.Handler())
	var once sync.Once
	stop = func() {
		once.Do(func() {
			hs.Close()
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, hs, stop
}

// Dataset synthesizes users one-day commuters sampled every two
// minutes.
func Dataset(t testing.TB, users int) *trace.Dataset {
	t.Helper()
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = users
	cfg.Sampling = 2 * time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Dataset
}

// PostNDJSON posts d as one NDJSON ingest body and returns the number
// of points the server accepted.
func PostNDJSON(t testing.TB, url string, d *trace.Dataset) int {
	t.Helper()
	var body bytes.Buffer
	if err := traceio.WriteJSONL(&body, d); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/ingest", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var out struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Accepted
}

// PostFlush asks the server to flush every open trace.
func PostFlush(t testing.TB, url string) {
	t.Helper()
	resp, err := http.Post(url+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
}
