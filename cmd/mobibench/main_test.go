package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mobipriv/internal/experiment"
	"mobipriv/internal/store"
	"mobipriv/internal/synth"
)

func TestRunSelectedQuick(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E1", "-scale", "quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== E1:") {
		t.Fatalf("missing E1 table:\n%s", s)
	}
	if !strings.Contains(s, "quick scale") {
		t.Fatalf("missing scale footer:\n%s", s)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E1, E3", "-scale", "quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "== E1:") || !strings.Contains(s, "== E3:") {
		t.Fatalf("missing tables:\n%s", s)
	}
}

// TestRunDatasetOverride runs an experiment over a native store
// instead of the synthetic workloads.
func TestRunDatasetOverride(t *testing.T) {
	defer experiment.SetWorkload(nil)
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 4
	cfg.Sampling = 3 * time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.mstore")
	if err := store.WriteDataset(path, g.Dataset, store.Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-exp", "E1", "-scale", "quick", "-dataset", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "running over "+path) {
		t.Fatalf("missing dataset banner:\n%s", s)
	}
	if !strings.Contains(s, "== E1:") {
		t.Fatalf("missing E1 table:\n%s", s)
	}

	// E9 sweeps the workload size; running it over a fixed dataset
	// would fabricate per-density rows, so it must refuse.
	if err := run([]string{"-exp", "E9", "-scale", "quick", "-dataset", path}, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "sweep") {
		t.Fatalf("E9 with -dataset: err = %v, want sweep-incompatibility error", err)
	}

	// Multi-workload experiments collapse to one honestly-labeled run
	// instead of duplicating the dataset under workload names.
	out.Reset()
	if err := run([]string{"-exp", "E2", "-scale", "quick", "-dataset", path}, &out); err != nil {
		t.Fatalf("E2 with -dataset: %v", err)
	}
	if !strings.Contains(out.String(), "dataset") || strings.Contains(out.String(), "taxi") {
		t.Fatalf("E2 rows not collapsed to 'dataset':\n%s", out.String())
	}
}

// TestRunDatasetSkipsSweeps pins that -exp all with -dataset skips the
// sweep experiments with a note instead of aborting mid-run.
func TestRunDatasetSkipsSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	defer experiment.SetWorkload(nil)
	// Quick-scale-sized workload: some experiments (w4m rows in E4)
	// legitimately need enough users to form anonymity sets.
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 12
	cfg.Sampling = 2 * time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "all.mstore")
	if err := store.WriteDataset(path, g.Dataset, store.Options{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-scale", "quick", "-dataset", path}, &out); err != nil {
		t.Fatalf("-exp all with -dataset: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "(E9 skipped:") {
		t.Fatalf("missing E9 skip note:\n%s", s)
	}
	if !strings.Contains(s, "(E13 skipped:") {
		t.Fatalf("missing E13 (ground-truth) skip note:\n%s", s)
	}
	for _, id := range []string{"== E1:", "== E8:", "== E11:", "== E15:"} {
		if !strings.Contains(s, id) {
			t.Fatalf("missing %s table (run aborted?):\n%s", id, s)
		}
	}
}

func TestRunErrors(t *testing.T) {
	defer experiment.SetWorkload(nil)
	cases := [][]string{
		{"-exp", "E99"},
		{"-scale", "galactic"},
		{"-dataset", "/nonexistent.mstore"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
