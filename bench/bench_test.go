package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json and the tables in workloads.go name the same
// workloads and metrics, in the same order, within the limits the
// benchmark contract sets.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in workloads.go", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in workloads.go", len(got), kind, len(want))
		}
		for i, m := range got {
			name(m.Name)
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s (%s) in BENCHMARK.json, %s (%s) in workloads.go",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s metric %s: unit %q, better %q", kind, m.Name, m.Unit, m.Better)
			}
			switch {
			case !bounded && m.Bound != nil:
				t.Errorf("per-layer metric %s has a bound", m.Name)
			case bounded && (m.Bound == nil || *m.Bound != want[i].bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("end-to-end metric %s: bound %v in BENCHMARK.json, %v in workloads.go", m.Name, m.Bound, want[i].bound)
			}
		}
	}
	compare("end-to-end", bj.EndToEnd, endToEnd, true)
	compare("per-layer", bj.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
}

// Every workload runs end to end at a fiftieth of its size, untraced
// and traced: outputs check out, every metric named in workloads.go is
// reported finite and (the two that are differences apart)
// non-negative, and every span has its parent in its own trace.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	b := &bench{root: "..", build: t.TempDir(), seed: 1, seconds: 0.6, scale: testScale}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	defer killLive()
	signed := map[string]bool{"bench.trace_overhead_share": true, "serve.unattributed_share": true}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			b.trace = traced
			r, err := b.runOnce(context.Background(), w)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d operations failed: %v", w.name, traced, r.failed, r.attempted, r.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := r.metrics[d.name]
				switch {
				case !ok && !traced:
					t.Errorf("%s: end-to-end metric %s not reported", w.name, d.name)
				case math.IsNaN(v) || math.IsInf(v, 0) || (v < 0 && !signed[d.name]):
					t.Errorf("%s: metric %s is %v", w.name, d.name, v)
				case !traced && v == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
				}
			}
		}
		checkSpans(t, filepath.Join(b.outdir, "trace-"+w.name+".json"))
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.Span] = s
	}
	for _, s := range spans {
		if s.End < s.Start || s.Name == "" {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			t.Fatalf("%s: span %+v does not lie within a parent of its trace (%+v)", path, s, p)
		}
	}
}
