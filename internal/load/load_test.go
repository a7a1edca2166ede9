package load

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"mobipriv/internal/store"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
	"mobipriv/internal/traceio"
)

// newStub builds the test target: /ingest counts decoded points and
// /flush counts calls, mimicking mobiserve's wire contract without the
// engine.
func newStub(t *testing.T) (srv *httptest.Server, points, flushes *atomic.Int64) {
	t.Helper()
	points, flushes = &atomic.Int64{}, &atomic.Int64{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		n := int64(0)
		if err := traceio.DecodeJSONL(r.Body, func(user string, p trace.Point) error {
			n++
			return nil
		}); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		points.Add(n)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int64{"accepted": n})
	})
	mux.HandleFunc("POST /flush", func(w http.ResponseWriter, r *http.Request) {
		flushes.Add(1)
		json.NewEncoder(w).Encode(map[string]bool{"flushed": true})
	})
	srv = httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, points, flushes
}

// TestRunDeterministic pins the headline contract: same seed and shape
// → same checksum, same point count, everything the server received.
func TestRunDeterministic(t *testing.T) {
	srv, points, flushes := newStub(t)
	cfg := Config{
		Target:  srv.URL,
		Users:   8,
		Days:    1,
		Seed:    42,
		Batch:   100,
		Workers: 4,
		Flush:   true,
	}
	res1, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Points == 0 {
		t.Fatal("no traffic generated")
	}
	if res1.Errors != 0 {
		t.Fatalf("%d errors", res1.Errors)
	}
	if res1.Accepted != res1.Points {
		t.Fatalf("accepted %d != sent %d", res1.Accepted, res1.Points)
	}
	if got := points.Load(); got != res1.Points {
		t.Fatalf("server saw %d points, driver sent %d", got, res1.Points)
	}
	if flushes.Load() != 1 {
		t.Fatalf("flushes = %d, want 1", flushes.Load())
	}
	if res1.PointsPerS <= 0 {
		t.Fatalf("points_per_s = %v", res1.PointsPerS)
	}

	res2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.TrafficChecksum != res2.TrafficChecksum {
		t.Fatalf("checksum differs across identical runs: %s vs %s",
			res1.TrafficChecksum, res2.TrafficChecksum)
	}
	if res1.Points != res2.Points {
		t.Fatalf("point count differs: %d vs %d", res1.Points, res2.Points)
	}

	// A different seed must produce different traffic.
	cfg.Seed = 43
	res3, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res3.TrafficChecksum == res1.TrafficChecksum {
		t.Fatal("different seeds produced identical traffic checksums")
	}
}

// TestRunMaxPoints pins that MaxPoints truncation is honored.
func TestRunMaxPoints(t *testing.T) {
	srv, points, _ := newStub(t)
	res, err := Run(context.Background(), Config{
		Target:    srv.URL,
		Users:     5,
		Seed:      7,
		MaxPoints: 123,
		Workers:   3,
		Batch:     50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points != 123 {
		t.Fatalf("points = %d, want 123", res.Points)
	}
	if points.Load() != 123 {
		t.Fatalf("server saw %d", points.Load())
	}
}

// TestRunStoreTraffic replays traffic from an .mstore instead of synth.
func TestRunStoreTraffic(t *testing.T) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 4
	cfg.Seed = 5
	gen, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "in.mstore")
	if err := store.WriteDataset(dir, gen.Dataset, store.Options{}); err != nil {
		t.Fatal(err)
	}
	srv, points, _ := newStub(t)
	res, err := Run(context.Background(), Config{Target: srv.URL, Store: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(gen.Dataset.TotalPoints())
	if res.Points != want || points.Load() != want {
		t.Fatalf("points = %d (server %d), want %d", res.Points, points.Load(), want)
	}
}

// TestRunRate sanity-checks pacing: a low target rate stretches the
// run to roughly points/rate seconds.
func TestRunRate(t *testing.T) {
	srv, _, _ := newStub(t)
	start := time.Now()
	res, err := Run(context.Background(), Config{
		Target:    srv.URL,
		Users:     2,
		Seed:      1,
		MaxPoints: 200,
		Batch:     50,
		Workers:   1,
		Rate:      1000, // 200 points at 1000/s ≈ 0.2s minimum
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 100*time.Millisecond {
		t.Fatalf("run finished in %v — pacing not applied", el)
	}
	if res.TargetRate != 1000 {
		t.Fatalf("target rate not recorded: %v", res.TargetRate)
	}
}
