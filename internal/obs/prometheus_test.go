package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exposition byte-for-byte: family
// ordering, series ordering, HELP/TYPE lines, label escaping, and the
// histogram bucket rollup are all part of the scrape contract.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "sorts last").Add(1)
	r.Counter("app_requests_total", "Requests served", L("route", "/ingest")).Add(12)
	r.Counter("app_requests_total", "Requests served", L("route", "/stats")).Add(3)
	r.GaugeFunc("app_queue_depth", "Queue depth", func() float64 { return 4 }, L("shard", "0"))
	r.GaugeFunc("app_queue_depth", "Queue depth", func() float64 { return 7.5 }, L("shard", "1"))
	r.GaugeFunc("app_uptime_seconds", "Uptime", func() float64 { return 42.25 })
	r.Counter("esc_total", "help with \\ backslash\nand newline",
		L("v", "quote \" slash \\ nl \n end"),
	).Add(9)

	h := r.Histogram("app_latency_seconds", "Request latency")
	h.ObserveDuration(500 * time.Nanosecond)  // below first le
	h.ObserveDuration(800 * time.Microsecond) // mid-range
	h.ObserveDuration(900 * time.Microsecond) // same coarse bucket
	h.ObserveDuration(250 * time.Millisecond) // upper range
	h.ObserveDuration(30 * time.Second)       // beyond last le → only +Inf

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	golden := filepath.Join("testdata", "expo.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden\n-- got --\n%s\n-- want --\n%s", got, want)
	}
}

// TestHistogramExpositionCumulative checks the invariants any
// Prometheus client would assume: buckets are cumulative and
// monotonic, and the +Inf bucket equals _count.
func TestHistogramExpositionCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency")
	for i := 1; i <= 300; i++ {
		h.ObserveDuration(time.Duration(i) * 37 * time.Microsecond)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var prev uint64
	var infSeen bool
	var count uint64
	for _, line := range strings.Split(sb.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "lat_seconds_bucket"):
			v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("bucket not cumulative: %q after %d", line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				infSeen = true
				if v != 300 {
					t.Fatalf("+Inf bucket = %d, want 300", v)
				}
			}
		case strings.HasPrefix(line, "lat_seconds_count"):
			count, _ = strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		}
	}
	if !infSeen {
		t.Fatal("no +Inf bucket emitted")
	}
	if count != 300 {
		t.Fatalf("_count = %d, want 300", count)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i) * time.Nanosecond)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for s := 0; s < 8; s++ {
		depth := float64(s)
		r.GaugeFunc("bench_queue_depth", "bench", func() float64 { return depth }, L("shard", strconv.Itoa(s)))
	}
	r.Counter("bench_points_total", "bench").Add(1 << 20)
	h := r.Histogram("bench_latency_seconds", "bench")
	for i := 0; i < 1000; i++ {
		h.ObserveDuration(time.Duration(i) * time.Microsecond)
	}
	var sb strings.Builder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := r.WritePrometheus(&sb); err != nil {
			b.Fatal(err)
		}
	}
}
