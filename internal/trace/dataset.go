package trace

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mobipriv/internal/geo"
)

// ErrDuplicateUser reports two traces sharing a user identifier within
// one dataset.
var ErrDuplicateUser = errors.New("trace: duplicate user in dataset")

// Dataset is a collection of traces, one per user, as released by a data
// publisher. Traces are kept sorted by user identifier for deterministic
// iteration.
type Dataset struct {
	traces []*Trace
	byUser map[string]*Trace
}

// NewDataset builds a dataset from the given traces. Each trace is
// validated; user identifiers must be unique.
func NewDataset(traces []*Trace) (*Dataset, error) {
	d := &Dataset{byUser: make(map[string]*Trace, len(traces))}
	for _, t := range traces {
		if err := d.Add(t); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// MustNewDataset is NewDataset that panics on error; for tests only.
func MustNewDataset(traces []*Trace) *Dataset {
	d, err := NewDataset(traces)
	if err != nil {
		panic(err)
	}
	return d
}

// Add validates t and inserts it, keeping user order.
func (d *Dataset) Add(t *Trace) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("add trace: %w", err)
	}
	if d.byUser == nil {
		d.byUser = make(map[string]*Trace)
	}
	if _, exists := d.byUser[t.User]; exists {
		return fmt.Errorf("%w: %q", ErrDuplicateUser, t.User)
	}
	d.byUser[t.User] = t
	i := sort.Search(len(d.traces), func(i int) bool { return d.traces[i].User >= t.User })
	d.traces = append(d.traces, nil)
	copy(d.traces[i+1:], d.traces[i:])
	d.traces[i] = t
	return nil
}

// Len returns the number of traces.
func (d *Dataset) Len() int { return len(d.traces) }

// Traces returns the traces in user order. The returned slice must not
// be modified; the traces it points to are shared.
func (d *Dataset) Traces() []*Trace { return d.traces }

// ByUser returns the trace of the given user, or nil.
func (d *Dataset) ByUser(user string) *Trace { return d.byUser[user] }

// Users returns the sorted user identifiers.
func (d *Dataset) Users() []string {
	out := make([]string, len(d.traces))
	for i, t := range d.traces {
		out[i] = t.User
	}
	return out
}

// TotalPoints returns the total number of observations across all traces.
func (d *Dataset) TotalPoints() int {
	var n int
	for _, t := range d.traces {
		n += len(t.Points)
	}
	return n
}

// Bounds returns the bounding box of all observations.
func (d *Dataset) Bounds() geo.BBox {
	var box geo.BBox
	for _, t := range d.traces {
		box = box.Union(t.Bounds())
	}
	return box
}

// TimeSpan returns the earliest and latest observation times. ok is
// false for an empty dataset.
func (d *Dataset) TimeSpan() (from, to time.Time, ok bool) {
	for _, t := range d.traces {
		s, e := t.Start().Time, t.End().Time
		if !ok {
			from, to, ok = s, e, true
			continue
		}
		if s.Before(from) {
			from = s
		}
		if e.After(to) {
			to = e
		}
	}
	return from, to, ok
}

// Validate re-checks every trace invariant plus user uniqueness.
func (d *Dataset) Validate() error {
	seen := make(map[string]bool, len(d.traces))
	for _, t := range d.traces {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.User] {
			return fmt.Errorf("%w: %q", ErrDuplicateUser, t.User)
		}
		seen[t.User] = true
	}
	return nil
}

// String implements fmt.Stringer.
func (d *Dataset) String() string {
	return fmt.Sprintf("Dataset(%d users, %d points)", d.Len(), d.TotalPoints())
}
