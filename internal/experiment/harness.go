// Package experiment implements the evaluation harness: every
// experiment E1..E15 is a named, self-contained function producing a
// table that can be rendered to text. The cmd/ binaries and the
// repository-level benchmarks are thin wrappers around this registry,
// so every table is regenerable with one command (cmd/mobibench).
package experiment

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Scale selects the workload size.
type Scale int

const (
	// Quick is used by tests and benchmarks: small workloads, seconds.
	Quick Scale = iota + 1
	// Full is cmd/mobibench's default: the evaluation-sized workloads.
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one row; the cell count must match Columns.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-text note rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Experiment is one registered evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (*Table, error)
}

// ErrUnknownExperiment reports a lookup for an unregistered id.
var ErrUnknownExperiment = errors.New("experiment: unknown id")

// registry is populated in this package's experiment files.
var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// All returns every registered experiment sorted by id (E1, E2, ...,
// E10, E11, E12 in natural order).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return naturalLess(out[i].ID, out[j].ID) })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
	return e, nil
}

// naturalLess compares "E2" < "E10" numerically.
func naturalLess(a, b string) bool {
	na, nb := 0, 0
	fmt.Sscanf(a, "E%d", &na)
	fmt.Sscanf(b, "E%d", &nb)
	if na != nb {
		return na < nb
	}
	return a < b
}

// fmtF renders a float with 3 decimals.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtM renders a distance in meters with 1 decimal.
func fmtM(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtI renders an int.
func fmtI(v int) string { return fmt.Sprintf("%d", v) }
