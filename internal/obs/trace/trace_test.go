package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDeriveIDDeterministic pins that ID derivation is a pure function
// and that distinct parts produce distinct IDs.
func TestDeriveIDDeterministic(t *testing.T) {
	a := DeriveID(42, 1, 2, 3)
	b := DeriveID(42, 1, 2, 3)
	if a != b {
		t.Fatalf("DeriveID not deterministic: %v vs %v", a, b)
	}
	if a.IsZero() {
		t.Fatalf("DeriveID returned zero ID")
	}
	seen := map[TraceID]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for p := uint64(0); p < 64; p++ {
			id := DeriveID(seed, p)
			if seen[id] {
				t.Fatalf("collision at seed=%d part=%d: %v", seed, p, id)
			}
			seen[id] = true
		}
	}
}

// TestSamplingKnownAnswers pins the exact sampling decisions for a
// fixed seed: if the mixing or salt derivation changes, replayed
// mobiload traffic would sample a different request subset, breaking
// the determinism contract. The expected values were computed from the
// current splitmix64 derivation — they are a regression pin, not a
// spec.
func TestSamplingKnownAnswers(t *testing.T) {
	tr := New(Config{SampleRate: 0.25, Seed: 7})
	got := ""
	for i := uint64(0); i < 32; i++ {
		if tr.Sampled(DeriveID(7, i)) {
			got += "1"
		} else {
			got += "0"
		}
	}
	// Recompute once and pin. Density should be near 0.25.
	const want = "00000000111000100010010010110100"
	if got != want {
		t.Fatalf("sampling pattern changed:\n got %s\nwant %s", got, want)
	}

	// Rate bounds.
	always := New(Config{SampleRate: 1, Seed: 7})
	never := New(Config{SampleRate: 0, Seed: 7})
	for i := uint64(0); i < 16; i++ {
		id := DeriveID(7, i)
		if !always.Sampled(id) {
			t.Fatalf("rate 1 must sample everything")
		}
		if never.Sampled(id) {
			t.Fatalf("rate 0 must sample nothing")
		}
	}
	var nilT *Tracer
	if nilT.Sampled(DeriveID(7, 0)) || nilT.Root("x", TraceID{}, 0) != nil {
		t.Fatalf("nil tracer must not sample")
	}
}

// TestSpanIDsDeterministic pins that a replayed trace produces
// byte-identical span IDs: same trace ID, same creation order -> same
// IDs, independent of wall-clock.
func TestSpanIDsDeterministic(t *testing.T) {
	run := func() []string {
		tr := New(Config{SampleRate: 1, Seed: 3})
		id := DeriveID(3, 11)
		root := tr.Root("ingest", id, 0)
		var ids []string
		ids = append(ids, root.SpanID().String())
		for i := 0; i < 3; i++ {
			c := root.Child("engine.batch")
			ids = append(ids, c.SpanID().String())
			c.Record("engine.process", time.Now(), time.Millisecond)
			c.End()
		}
		root.End()
		rs := tr.Recent(1)[0]
		for _, sp := range rs.Spans {
			ids = append(ids, sp.ID.String())
		}
		return ids
	}
	a, b := run(), run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("span IDs differ across identical replays:\n%v\n%v", a, b)
	}
}

// TestRootPublication covers the refcount contract: a root with a
// child still open publishes only after the child ends, and the
// published trace contains both spans sorted by start.
func TestRootPublication(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 1})
	root := tr.Root("req", TraceID{}, 0)
	child := root.Child("work")
	root.End()
	if tr.Published() != 0 {
		t.Fatalf("root published before child ended")
	}
	child.End()
	if tr.Published() != 1 {
		t.Fatalf("root not published after last child ended")
	}
	rs := tr.Recent(1)[0]
	if rs.Name != "req" || len(rs.Spans) != 1 || rs.Spans[0].Kind != "work" {
		t.Fatalf("unexpected published trace: %+v", rs)
	}
	if rs.Spans[0].Parent != rs.Root.ID {
		t.Fatalf("child not parented to root")
	}
}

// TestRingWraparound fills the flight recorder past capacity and
// checks Recent returns the newest roots, newest first.
func TestRingWraparound(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 5, RingSize: 8})
	for i := 0; i < 20; i++ {
		sp := tr.Root("r", TraceID{}, 0)
		sp.SetAttr(Int("i", int64(i)))
		sp.End()
	}
	recent := tr.Recent(0)
	if len(recent) != 8 {
		t.Fatalf("ring holds %d roots, want 8", len(recent))
	}
	for k, rs := range recent {
		want := itoa(int64(19 - k))
		if len(rs.Root.Attrs) != 1 || rs.Root.Attrs[0].Value != want {
			t.Fatalf("slot %d: got attr %v, want i=%s", k, rs.Root.Attrs, want)
		}
	}
	if got := tr.Recent(3); len(got) != 3 {
		t.Fatalf("Recent(3) returned %d", len(got))
	}
}

// TestRingConcurrent hammers the recorder from many goroutines; run
// under -race this is the lock-freedom proof. Each goroutine also
// builds child spans concurrently against its own root.
func TestRingConcurrent(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 9, RingSize: 16})
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				root := tr.Root("req", tr.DeriveID(uint64(w), uint64(i)), 0)
				c := root.Child("work")
				c.Record("sub", time.Now(), time.Microsecond)
				root.End() // root ends before child: publication must wait
				c.End()
				_ = tr.Recent(4) // concurrent reads
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Published(); got != writers*perWriter {
		t.Fatalf("published %d, want %d", got, writers*perWriter)
	}
	for _, rs := range tr.Recent(0) {
		if len(rs.Spans) != 2 {
			t.Fatalf("trace has %d spans, want 2 (child + recorded sub)", len(rs.Spans))
		}
	}
}

// TestExemplars pins that the slowest root per power-of-two bucket is
// retained even after the ring wraps past it.
func TestExemplars(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 2, RingSize: 4})
	base := time.Unix(1000, 0)
	durations := []time.Duration{
		100 * time.Microsecond, 130 * time.Microsecond, // same bucket: keep 130
		3 * time.Millisecond,
		70 * time.Millisecond,
	}
	for i, d := range durations {
		sp := tr.RootAt("req", tr.DeriveID(uint64(i)), 0, base)
		sp.SetAttr(Int("i", int64(i)))
		sp.EndAt(base.Add(d))
	}
	// Wrap the ring with fast requests; exemplars must survive.
	for i := 0; i < 10; i++ {
		sp := tr.RootAt("req", tr.DeriveID(uint64(100+i)), 0, base)
		sp.EndAt(base.Add(time.Microsecond))
	}
	ex := tr.Exemplars()
	var got []time.Duration
	for _, e := range ex {
		d := e.Root.Root.Duration
		if d < BucketFloor(e.Bucket) || (e.Bucket < 64 && d >= 2*BucketFloor(e.Bucket)) {
			t.Fatalf("exemplar duration %v outside bucket %d [%v, %v)",
				d, e.Bucket, BucketFloor(e.Bucket), 2*BucketFloor(e.Bucket))
		}
		got = append(got, d)
	}
	want := []time.Duration{time.Microsecond, 130 * time.Microsecond, 3 * time.Millisecond, 70 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %d exemplars %v, want %v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("exemplar %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTraceparentRoundTrip is the property test: format ∘ parse is the
// identity over random valid (id, span, flags) triples, and parse
// rejects a catalogue of malformed headers.
func TestTraceparentRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	for i := 0; i < 2000; i++ {
		id := TraceID{Hi: rnd.Uint64(), Lo: rnd.Uint64()}
		if id.IsZero() {
			id.Lo = 1
		}
		span := SpanID(rnd.Uint64())
		if span == 0 {
			span = 1
		}
		sampled := rnd.Intn(2) == 0
		s := FormatTraceparent(id, span, sampled)
		if len(s) != 55 {
			t.Fatalf("formatted length %d: %q", len(s), s)
		}
		gid, gspan, gsampled, ok := ParseTraceparent(s)
		if !ok || gid != id || gspan != span || gsampled != sampled {
			t.Fatalf("round trip failed for %q: got %v %v %v ok=%v", s, gid, gspan, gsampled, ok)
		}
	}
	bad := []string{
		"",
		"00",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // version ff
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",  // bad flags
		"0x-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad version
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // ver 00 trailing junk
	}
	for _, s := range bad {
		if _, _, _, ok := ParseTraceparent(s); ok {
			t.Fatalf("accepted malformed traceparent %q", s)
		}
	}
	// A future version may carry extra dash-separated fields.
	future := "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extrastate"
	if _, _, _, ok := ParseTraceparent(future); !ok {
		t.Fatalf("rejected future-version traceparent %q", future)
	}
}

// TestSnapshotGoldenJSON builds a fully deterministic trace history
// (explicit clocks, derived IDs) and pins the /debug/traces JSON.
func TestSnapshotGoldenJSON(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 4, RingSize: 4})
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

	root := tr.RootAt("POST /ingest", DeriveID(4, 1), 0, base)
	root.SetAttr(Int("points", 512))
	b := root.Child("engine.batch")
	b.start = base.Add(1 * time.Millisecond)
	b.Record("engine.queue_wait", base.Add(1*time.Millisecond), 2*time.Millisecond)
	b.Record("engine.process", base.Add(3*time.Millisecond), 5*time.Millisecond, Int("points", 512))
	b.EndAt(base.Add(8 * time.Millisecond))
	root.EndAt(base.Add(9 * time.Millisecond))

	var buf bytes.Buffer
	if err := tr.Snapshot(10).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `{
  "sample_rate": 1,
  "published": 1,
  "recent": [
    {
      "trace_id": "de298bd98ed48c27ceac458c38313160",
      "name": "POST /ingest",
      "start": "2026-01-02T03:04:05Z",
      "duration_us": 9000,
      "root": {
        "span_id": "73578bb650385ac3",
        "kind": "POST /ingest",
        "start": "2026-01-02T03:04:05Z",
        "duration_us": 9000,
        "attrs": [
          {
            "key": "points",
            "value": "512"
          }
        ]
      },
      "spans": [
        {
          "span_id": "53108cad70e227c9",
          "parent_id": "73578bb650385ac3",
          "kind": "engine.batch",
          "start": "2026-01-02T03:04:05.001Z",
          "duration_us": 7000
        },
        {
          "span_id": "62583d1d87f5b1c1",
          "parent_id": "53108cad70e227c9",
          "kind": "engine.queue_wait",
          "start": "2026-01-02T03:04:05.001Z",
          "duration_us": 2000
        },
        {
          "span_id": "a31792859519b175",
          "parent_id": "53108cad70e227c9",
          "kind": "engine.process",
          "start": "2026-01-02T03:04:05.003Z",
          "duration_us": 5000,
          "attrs": [
            {
              "key": "points",
              "value": "512"
            }
          ]
        }
      ]
    }
  ],
  "exemplars": [
    {
      "bucket": 24,
      "bucket_floor_us": 8388,
      "root": {
        "trace_id": "de298bd98ed48c27ceac458c38313160",
        "name": "POST /ingest",
        "start": "2026-01-02T03:04:05Z",
        "duration_us": 9000,
        "root": {
          "span_id": "73578bb650385ac3",
          "kind": "POST /ingest",
          "start": "2026-01-02T03:04:05Z",
          "duration_us": 9000,
          "attrs": [
            {
              "key": "points",
              "value": "512"
            }
          ]
        },
        "spans": [
          {
            "span_id": "53108cad70e227c9",
            "parent_id": "73578bb650385ac3",
            "kind": "engine.batch",
            "start": "2026-01-02T03:04:05.001Z",
            "duration_us": 7000
          },
          {
            "span_id": "62583d1d87f5b1c1",
            "parent_id": "53108cad70e227c9",
            "kind": "engine.queue_wait",
            "start": "2026-01-02T03:04:05.001Z",
            "duration_us": 2000
          },
          {
            "span_id": "a31792859519b175",
            "parent_id": "53108cad70e227c9",
            "kind": "engine.process",
            "start": "2026-01-02T03:04:05.003Z",
            "duration_us": 5000,
            "attrs": [
              {
                "key": "points",
                "value": "512"
              }
            ]
          }
        ]
      }
    }
  ],
  "kinds": [
    {
      "kind": "POST /ingest",
      "count": 1,
      "total_us": 9000,
      "mean_us": 9000,
      "max_us": 9000
    },
    {
      "kind": "engine.batch",
      "count": 1,
      "total_us": 7000,
      "mean_us": 7000,
      "max_us": 7000
    },
    {
      "kind": "engine.process",
      "count": 1,
      "total_us": 5000,
      "mean_us": 5000,
      "max_us": 5000
    },
    {
      "kind": "engine.queue_wait",
      "count": 1,
      "total_us": 2000,
      "mean_us": 2000,
      "max_us": 2000
    }
  ]
}
`
	if got != want {
		t.Fatalf("snapshot JSON drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The text form must at least render without error and mention the
	// span kinds.
	var txt bytes.Buffer
	if err := tr.Snapshot(10).WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"POST /ingest", "engine.queue_wait", "span kinds:"} {
		if !strings.Contains(txt.String(), needle) {
			t.Fatalf("text snapshot missing %q:\n%s", needle, txt.String())
		}
	}
}

// TestSlowFunc pins the -trace-slow hook: only roots at or above the
// threshold fire it.
func TestSlowFunc(t *testing.T) {
	var slow []*RootSpan
	tr := New(Config{
		SampleRate:    1,
		Seed:          6,
		SlowThreshold: 10 * time.Millisecond,
		SlowFunc:      func(rs *RootSpan) { slow = append(slow, rs) },
	})
	base := time.Unix(0, 0)
	tr.RootAt("fast", DeriveID(6, 1), 0, base).EndAt(base.Add(time.Millisecond))
	tr.RootAt("slow", DeriveID(6, 2), 0, base).EndAt(base.Add(25 * time.Millisecond))
	if len(slow) != 1 || slow[0].Name != "slow" {
		t.Fatalf("slow hook fired %d times (%v), want once for 'slow'", len(slow), slow)
	}
}

// TestNilSpanSafety: the unsampled path carries nil spans through all
// layers; every method must tolerate it.
func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.SetAttr(A("k", "v"))
	s.Record("x", time.Now(), time.Second)
	c := s.Child("y")
	if c != nil {
		t.Fatalf("nil span Child returned non-nil")
	}
	s.End()
	if !s.TraceID().IsZero() || s.SpanID() != 0 {
		t.Fatalf("nil span leaked identity")
	}
}

// TestContextPlumbing round-trips a span through a context.
func TestContextPlumbing(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 8})
	sp := tr.Root("r", TraceID{}, 0)
	ctx := NewContext(t.Context(), sp)
	if FromContext(ctx) != sp {
		t.Fatalf("span lost in context")
	}
	if FromContext(t.Context()) != nil {
		t.Fatalf("empty context returned a span")
	}
	sp.End()
}

// TestExemplarBucketEdges sanity-checks the bucket function against
// its floor inverse.
func TestExemplarBucketEdges(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 2, 3, 1024, time.Millisecond, time.Second, time.Hour} {
		b := exemplarBucket(d)
		if d > 0 && (d < BucketFloor(b) || (b < 64 && d >= 2*BucketFloor(b))) {
			t.Fatalf("duration %v mapped to bucket %d (floor %v)", d, b, BucketFloor(b))
		}
	}
	if exemplarBucket(0) != 0 || BucketFloor(0) != 0 {
		t.Fatalf("zero duration must map to bucket 0")
	}
}

func ExampleFormatTraceparent() {
	id := DeriveID(1, 2)
	fmt.Println(FormatTraceparent(id, DeriveSpanID(id, 0, "client", 0), true))
	// Output: 00-844af5e71708cc94db19b71a8dd87115-deb3542ac257950c-01
}
