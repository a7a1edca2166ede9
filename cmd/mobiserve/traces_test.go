package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	otrace "mobipriv/internal/obs/trace"
	"mobipriv/internal/serve/servetest"
	"mobipriv/internal/serve/worker"
	"mobipriv/internal/traceio"
)

// TestDebugTraces drives sampled traffic through a traced server and
// asserts the zpages contract of GET /debug/traces: recent roots, the
// slowest exemplar per latency bucket, and per-kind summaries that
// include the engine decomposition spans.
func TestDebugTraces(t *testing.T) {
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "geoi(epsilon=0.01,seed=7)", Shards: 4, TraceSample: 1})

	d := servetest.Dataset(t, 6)
	servetest.PostNDJSON(t, hs.URL, d)
	servetest.PostFlush(t, hs.URL)

	resp, err := http.Get(hs.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces status %d", resp.StatusCode)
	}
	var snap otrace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}

	if snap.SampleRate != 1 {
		t.Fatalf("sample_rate %v, want 1", snap.SampleRate)
	}
	if snap.Published == 0 || len(snap.Recent) == 0 {
		t.Fatalf("no published traces: published=%d recent=%d", snap.Published, len(snap.Recent))
	}
	if len(snap.Exemplars) == 0 {
		t.Fatal("no latency-bucket exemplars")
	}
	for i, ex := range snap.Exemplars {
		if ex.Root.DurationUs < ex.BucketFloorUs {
			t.Errorf("exemplar %d: duration %dus below bucket floor %dus", i, ex.Root.DurationUs, ex.BucketFloorUs)
		}
		if i > 0 && ex.Bucket <= snap.Exemplars[i-1].Bucket {
			t.Errorf("exemplar buckets not strictly increasing: %d after %d", ex.Bucket, snap.Exemplars[i-1].Bucket)
		}
	}
	kinds := make(map[string]bool)
	for _, k := range snap.Kinds {
		kinds[k.Kind] = true
	}
	for _, want := range []string{"/ingest", "engine.batch", "engine.queue_wait", "engine.process", "engine.sink"} {
		if !kinds[want] {
			t.Errorf("span kind %q missing from summaries (have %v)", want, snap.Kinds)
		}
	}

	// The text rendering is the human half of the same snapshot.
	resp, err = http.Get(hs.URL + "/debug/traces?format=text")
	if err != nil {
		t.Fatal(err)
	}
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces text status %d", resp.StatusCode)
	}
	for _, needle := range []string{"recent roots", "exemplars (slowest per latency bucket):", "span kinds:"} {
		if !strings.Contains(string(raw), needle) {
			t.Errorf("text zpage missing %q", needle)
		}
	}
}

// TestIngestTraceparentEcho pins trace-context propagation over HTTP:
// a client-supplied traceparent is adopted (same trace ID back in the
// response header, new server-side parent span) and a missing header
// mints a fresh trace.
func TestIngestTraceparentEcho(t *testing.T) {
	_, hs, _ := servetest.Start(t, worker.Config{Spec: "raw", Shards: 1, TraceSample: 1})

	d := servetest.Dataset(t, 1)
	var body bytes.Buffer
	if err := traceio.WriteJSONL(&body, d); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/ingest", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	const client = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req.Header.Set("traceparent", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	echo := resp.Header.Get("traceparent")
	id, span, sampled, ok := otrace.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echo)
	}
	wantID, clientSpan, _, _ := otrace.ParseTraceparent(client)
	if id != wantID {
		t.Fatalf("server rewrote trace ID: got %v, want %v", id, wantID)
	}
	if span == clientSpan {
		t.Fatal("server echoed the client span ID instead of minting its own")
	}
	if !sampled {
		t.Fatal("sampled flag lost in echo")
	}

	// Without a header the server mints a trace of its own.
	resp, err = http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, _, _, ok := otrace.ParseTraceparent(resp.Header.Get("traceparent")); !ok {
		t.Fatalf("minted traceparent %q does not parse", resp.Header.Get("traceparent"))
	}
}
