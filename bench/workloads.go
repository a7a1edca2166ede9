package main

// workload is one set of inputs the benchmark runs. The reasons each
// exists are recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	kind kind

	// Base day: synth.Commuters{Users: commuters, Days: 1, Sampling:
	// 60s}, plus synth.TaxiFleet{Vehicles: cabs, TripsEach: cabTrips,
	// Sampling: 1s} when cabs > 0.
	commuters, cabs, cabTrips int

	// mechanism is the registry spec handed to the binaries.
	mechanism string

	// satRate sizes the saturation phase of a serving workload: it
	// sends the points this rate (points/s) moves in two thirds of
	// -seconds. The rates are what the 2-core reference box sustains at
	// the commit that added the benchmark, so the phase lasts about that
	// long there; they are not targets.
	satRate float64

	// routed puts a mobirouter and two mobiserve workers where the
	// other serving workloads have one mobiserve.
	routed bool
}

type kind int

const (
	serving kind = iota // mobiserve (or router + workers) under HTTP load
	anon                // repeated mobianon runs over a store
	eval                // repeated mobieval runs over a pair of stores
)

const (
	promesse = "promesse(epsilon=100)"
	geoi     = "geoi(epsilon=0.01,seed=1)"
)

// workloads lists every workload in the order BENCHMARK.json does.
var workloads = []*workload{
	{name: "serve-commuters", kind: serving, commuters: 600, mechanism: promesse, satRate: 600e3},
	{name: "serve-fleet-geoi", kind: serving, commuters: 150, cabs: 12, cabTrips: 24, mechanism: geoi, satRate: 450e3},
	{name: "serve-routed", kind: serving, commuters: 600, mechanism: promesse, satRate: 170e3, routed: true},
	{name: "store-anon", kind: anon, commuters: 1500, mechanism: promesse},
	{name: "store-eval", kind: eval, commuters: 300, mechanism: promesse},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef mirrors one metric entry of BENCHMARK.json; bound is zero
// for per-layer metrics.
type metricDef struct {
	name, unit string
	bound      float64
}

// endToEnd are the metrics a run reports with tracing off. Every
// workload reports every one; bench_test.go holds this table and
// BENCHMARK.json to each other.
var endToEnd = []metricDef{
	{"points_per_s", "points/s", 0.25},
	{"cpu_us_per_point", "us", 0.25},
	{"p50_ms", "ms", 0.25},
	{"peak_rss_mb", "MB", 0.20},
	{"setup_s", "s", 0.25},
}

// perLayer are the metrics a traced run reports. A layer that a
// workload does not exercise reports 0: no work was done there.
var perLayer = []metricDef{
	{name: "traceio.decode_ns_per_point", unit: "ns"},
	{name: "traceio.decode_allocs_per_point", unit: "count"},
	{name: "traceio.encode_ns_per_point", unit: "ns"},
	{name: "stream.push_ns_per_point", unit: "ns"},
	{name: "stream.push_allocs_per_point", unit: "count"},
	{name: "stream.queue_wait_p50_ms", unit: "ms"},
	{name: "stream.queue_wait_p99_ms", unit: "ms"},
	{name: "stream.process_p99_ms", unit: "ms"},
	{name: "stream.sink_p99_ms", unit: "ms"},
	{name: "stream.push_stalls", unit: "count"},
	{name: "stream.queue_high_water", unit: "count"},
	{name: "stream.shard_skew", unit: "ratio"},
	{name: "mechanism.push_ns_per_point", unit: "ns"},
	{name: "mechanism.push_allocs_per_point", unit: "count"},
	{name: "mechanism.out_per_in", unit: "ratio"},
	{name: "mechanism.pertrace_ns_per_point", unit: "ns"},
	{name: "risk.observe_ns_per_out_point", unit: "ns"},
	{name: "store.append_ns_per_point", unit: "ns"},
	{name: "store.flush_ns_per_point", unit: "ns"},
	{name: "store.bytes_per_point", unit: "bytes"},
	{name: "store.blocks", unit: "count"},
	{name: "store.syncs", unit: "count"},
	{name: "store.write_ops", unit: "count"},
	{name: "store.add_ns_per_point", unit: "ns"},
	{name: "store.batch_bytes_per_point", unit: "bytes"},
	{name: "store.scan_ns_per_point", unit: "ns"},
	{name: "store.paired_scan_ns_per_point", unit: "ns"},
	{name: "store.blocks_decoded", unit: "count"},
	{name: "store.cache_hits", unit: "count"},
	{name: "runner.runstore_ns_per_point", unit: "ns"},
	{name: "runner.peak_inflight", unit: "count"},
	{name: "metrics.eval_ns_per_point", unit: "ns"},
	{name: "metrics.attack_ns_per_point", unit: "ns"},
	{name: "metrics.merge_ns", unit: "ns"},
	{name: "router.forward_ns_per_point", unit: "ns"},
	{name: "router.forward_allocs_per_point", unit: "count"},
	{name: "router.cpu_us_per_point", unit: "us"},
	{name: "router.upstream_p99_ms", unit: "ms"},
	{name: "router.upstream_errors", unit: "count"},
	{name: "serve.cpu_us_per_point", unit: "us"},
	{name: "serve.http_ingest_p50_ms", unit: "ms"},
	{name: "serve.http_ingest_p99_ms", unit: "ms"},
	{name: "serve.gc_runs", unit: "count"},
	{name: "serve.heap_inuse_mb", unit: "MB"},
	{name: "serve.drain_s", unit: "s"},
	{name: "serve.unattributed_share", unit: "ratio"},
	{name: "load.client_cpu_us_per_point", unit: "us"},
	{name: "load.client_cpu_share", unit: "ratio"},
	{name: "load.late_p99_ms", unit: "ms"},
	{name: "load.requests", unit: "count"},
	{name: "load.valid", unit: "count"},
	{name: "ingest_p99_ms", unit: "ms"},
	{name: "ingest_samples", unit: "count"},
	{name: "points_per_s_mean", unit: "points/s"},
	{name: "failed_share", unit: "ratio"},
	{name: "bench.http_floor_us_per_request", unit: "us"},
	{name: "bench.build_s", unit: "s"},
	{name: "bench.trace_overhead_share", unit: "ratio"},
	{name: "bench.serial_points_per_s", unit: "points/s"},
}
