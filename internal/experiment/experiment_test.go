package experiment

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

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
// the repository's top-level integration test.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds")
	}
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
		})
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
