package experiment

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// update rewrites the golden file instead of comparing against it:
//
//	go test ./internal/experiment -run TestAllExperimentsRunQuick -args -update
var update = flag.Bool("update", false, "rewrite golden files")

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("registered %d experiments, want 14", len(all))
	}
	// Natural order E1..E15. E10 (a wall-clock throughput table) is
	// retired and the other ids keep their numbers.
	for i, e := range all {
		n := i + 1
		if n >= 10 {
			n++
		}
		want := "E" + strconv.Itoa(n)
		if e.ID != want {
			t.Errorf("All()[%d].ID = %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("E2"); err != nil {
		t.Fatalf("ByID(E2): %v", err)
	}
	_, err := ByID("E99")
	if !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("ByID(E99) error = %v", err)
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{ID: "T", Title: "demo", Columns: []string{"a", "long-column"}}
	table.AddRow("1", "2")
	table.AddRow("333333", "4")
	table.AddNote("hello %d", 42)
	var buf bytes.Buffer
	if err := table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== T: demo ==", "long-column", "333333", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Fatal("scale strings")
	}
	if Scale(99).String() == "" {
		t.Fatal("unknown scale should still render")
	}
}

// TestAllExperimentsRunQuick executes every experiment at Quick scale —
// the repository's top-level integration test — and compares the
// rendered tables with testdata/quick_golden.txt byte for byte. Quick
// tables carry no wall-clock numbers, so any drift is a change in what
// an experiment measures; regenerate deliberately with -update.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds")
	}
	var all bytes.Buffer
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if len(table.Columns) == 0 {
				t.Fatalf("%s has no columns", e.ID)
			}
			for ri, row := range table.Rows {
				if len(row) != len(table.Columns) {
					t.Errorf("%s row %d has %d cells, want %d", e.ID, ri, len(row), len(table.Columns))
				}
			}
			var buf bytes.Buffer
			if err := table.Render(&buf); err != nil {
				t.Fatalf("%s render: %v", e.ID, err)
			}
			t.Logf("\n%s", buf.String())
			all.Write(buf.Bytes())
		})
	}
	if t.Failed() {
		return
	}
	golden := filepath.Join("testdata", "quick_golden.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -args -update to create it)", err)
	}
	if !bytes.Equal(want, all.Bytes()) {
		wl := strings.Split(string(want), "\n")
		gl := strings.Split(all.String(), "\n")
		for i := 0; i < max(len(wl), len(gl)); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Errorf("line %d drifted from %s:\n want %q\n got  %q", i+1, golden, w, g)
			}
		}
	}
}

func TestNaturalLess(t *testing.T) {
	if !naturalLess("E2", "E10") {
		t.Error("E2 should sort before E10")
	}
	if naturalLess("E10", "E2") {
		t.Error("E10 should not sort before E2")
	}
}
