package trace

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func sampleDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := NewDataset([]*Trace{
		lineTrace("bob", 5, 10, 10*time.Second),
		lineTrace("alice", 8, 5, 10*time.Second),
		lineTrace("carol", 3, 20, 10*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDataset(t *testing.T) {
	d := sampleDataset(t)
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if got := d.Users(); got[0] != "alice" || got[1] != "bob" || got[2] != "carol" {
		t.Fatalf("Users = %v, want sorted", got)
	}
	if d.TotalPoints() != 16 {
		t.Fatalf("TotalPoints = %d, want 16", d.TotalPoints())
	}
}

func TestDatasetDuplicateUser(t *testing.T) {
	_, err := NewDataset([]*Trace{
		lineTrace("alice", 3, 10, time.Second),
		lineTrace("alice", 3, 10, time.Second),
	})
	if !errors.Is(err, ErrDuplicateUser) {
		t.Fatalf("error = %v, want ErrDuplicateUser", err)
	}
}

func TestDatasetAddInvalid(t *testing.T) {
	var d Dataset
	if err := d.Add(&Trace{User: "", Points: nil}); err == nil {
		t.Fatal("Add of invalid trace should fail")
	}
	if err := d.Add(lineTrace("zed", 2, 1, time.Second)); err != nil {
		t.Fatalf("Add on zero-value Dataset should work: %v", err)
	}
	if d.ByUser("zed") == nil {
		t.Fatal("ByUser should find added trace")
	}
}

func TestDatasetByUser(t *testing.T) {
	d := sampleDataset(t)
	if got := d.ByUser("bob"); got == nil || got.User != "bob" {
		t.Fatalf("ByUser(bob) = %v", got)
	}
	if got := d.ByUser("nobody"); got != nil {
		t.Fatalf("ByUser(nobody) = %v, want nil", got)
	}
}

func TestDatasetOrderIndependence(t *testing.T) {
	a := lineTrace("a", 2, 1, time.Second)
	b := lineTrace("b", 2, 1, time.Second)
	d1 := MustNewDataset([]*Trace{a, b})
	d2 := MustNewDataset([]*Trace{b, a})
	u1, u2 := d1.Users(), d2.Users()
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatal("dataset iteration order must be insertion-order independent")
		}
	}
}

func TestDatasetTimeSpan(t *testing.T) {
	d := sampleDataset(t)
	from, to, ok := d.TimeSpan()
	if !ok {
		t.Fatal("TimeSpan should succeed")
	}
	if from != t0 {
		t.Errorf("from = %v, want %v", from, t0)
	}
	if want := t0.Add(70 * time.Second); to != want { // alice has 8 points x 10s
		t.Errorf("to = %v, want %v", to, want)
	}
	var empty Dataset
	if _, _, ok := empty.TimeSpan(); ok {
		t.Error("empty dataset TimeSpan should report not-ok")
	}
}

func TestDatasetBounds(t *testing.T) {
	d := sampleDataset(t)
	box := d.Bounds()
	for _, tr := range d.Traces() {
		for _, p := range tr.Points {
			if !box.Contains(p.Point) {
				t.Fatalf("bounds must contain %v", p)
			}
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	d := sampleDataset(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset: %v", err)
	}
	// Corrupt a trace in place.
	d.ByUser("bob").Points[0].Time = t0.Add(time.Hour * 24)
	if err := d.Validate(); err == nil {
		t.Fatal("Validate should detect corrupted trace")
	}
}

func TestDatasetString(t *testing.T) {
	d := sampleDataset(t)
	if s := d.String(); !strings.Contains(s, "3 users") {
		t.Errorf("String() = %q", s)
	}
}
