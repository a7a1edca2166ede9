package mobipriv_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestPackageDocsPresent pins the godoc contract: the packages that
// carry cross-cutting invariants must state them in their package
// comment, so `go doc` is the source of truth a new contributor can
// trust (see docs/ARCHITECTURE.md). Each entry lists substrings the
// package doc must mention, lowercased.
func TestPackageDocsPresent(t *testing.T) {
	cases := []struct {
		dir      string
		keywords []string
	}{
		// The public API: the five pillars and the determinism contract.
		{".", []string{"mechanism", "store-native", "determinism", "(seed, user)"}},
		// The store: shard pinning and first-wins microsecond dedup.
		{"internal/store", []string{"shard", "first-wins", "microsecond", "crc"}},
		// The fault-injection harness: the crash model behind the
		// crash-matrix tests.
		{"internal/store/storetest", []string{"crash", "torn", "durable", "fault"}},
		// The metrics: the accumulator determinism contract behind
		// store-native evaluation.
		{"internal/metrics", []string{"accumulator", "merge", "bit-identical", "evalstore"}},
		// The streaming engine: shard hashing and backpressure.
		{"internal/stream", []string{"hash(user)", "backpressure", "bounded"}},
		// The risk subsystem: streaming stay detection with bounded
		// state, and the attack accumulator's merge contract.
		{"internal/risk", []string{"stay", "accumulator", "merge", "bounded"}},
		// The parallel substrate: worker-count-independent determinism.
		{"internal/par", []string{"worker", "determinism", "(seed, user)"}},
		// The observability substrate: mergeable race-safe instruments
		// and the scrape-time callback contract.
		{"internal/obs", []string{"counter", "gauge", "histogram", "merge", "prometheus", "idempotent"}},
		// The load driver: deterministic traffic and checksums.
		{"internal/load", []string{"deterministic", "hash(user)", "checksum", "mergeable"}},
		// The placement helper: the single hash both the engine's
		// shards and the router's nodes are derived from.
		{"internal/rng", []string{"placement", "shard", "splitmix64", "fnv"}},
		// The router: stateless placement-contract forwarding, exact
		// stats aggregation, and loud partition failure.
		{"internal/router", []string{"placement", "batch", "retried", "503", "merge", "traceparent"}},
		// The serving layer: the one ingest loop, the shutdown order and
		// the status mapping worker and router share.
		{"internal/serve", []string{"ingest", "arrival order", "backpressure", "in-flight", "drain", "503"}},
		// The worker: the engine around a registry spec, the sinks, and
		// what a graceful stop does to each output.
		{"internal/serve/worker", []string{"streaming-capable", "sink", ".mstore", "risk", "/out", "drain"}},
		// The tracing layer: deterministic identity and sampling,
		// nil-safe spans, and the flight-recorder retention story.
		{"internal/obs/trace", []string{"span", "deterministic", "sampling", "traceparent", "nil-safe", "ring", "exemplar"}},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			doc := strings.ToLower(packageDoc(t, tc.dir))
			if len(doc) < 200 {
				t.Fatalf("package doc for %s is %d chars — missing or perfunctory", tc.dir, len(doc))
			}
			for _, kw := range tc.keywords {
				if !strings.Contains(doc, kw) {
					t.Errorf("package doc for %s does not mention %q", tc.dir, kw)
				}
			}
		})
	}
}

// packageDoc returns the concatenated package-level doc comments of the
// non-test files in dir.
func packageDoc(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var b strings.Builder
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Doc != nil {
				b.WriteString(f.Doc.Text())
			}
		}
	}
	return b.String()
}
