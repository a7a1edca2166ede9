// Package obs is the observability substrate: a small, dependency-free
// metrics registry whose stored instruments — Counter and the
// log-bucketed latency Histogram — are race-safe (lock-free atomics on
// every hot-path operation) and mergeable, and whose contents are
// exposed in the Prometheus text format (WritePrometheus) with a
// stable, golden-testable ordering.
//
// The design mirrors the rest of the codebase's accumulator contract:
// a Histogram keeps only merge-order-invariant state (integer bucket
// counts and an integer nanosecond sum), so ObserveDuration and Merge
// commute — any partition of the observations over any number of
// histograms, merged in any order, yields bit-identical counts, sums
// and quantiles.
// That is what lets a load driver fan requests over workers, each with
// a private histogram, and still report deterministic aggregates.
//
// Callback instruments (CounterFunc, GaugeFunc) promote counters that
// already live elsewhere — an engine shard's atomics, a store writer's
// totals — into scrape-time values without double accounting: the
// registry never copies them, it reads them. Every gauge is such a
// callback; the registry stores no gauge state of its own. A value
// served on a JSON endpoint and on /metrics therefore CANNOT disagree
// when both read the registry, which is how mobiserve keeps /stats
// truthful.
//
// Registration is idempotent: asking for the same (name, labels)
// series again returns the same instrument. Conflicting re-use of a
// name (different kind or help text) panics — that is a programming
// error, not an operational condition.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing counter. The zero value is
// ready to use; obtain shared instances from Registry.Counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// kind discriminates the exposition type of a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family: exactly one of the
// instrument fields is set.
type series struct {
	labels []Label
	sig    string // canonical label signature, the sort key

	counter *Counter
	hist    *Histogram
	fn      func() float64 // CounterFunc / GaugeFunc
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series map[string]*series
}

// Registry holds metric families and writes them out in Prometheus
// text format. Instrument operations (Inc, Add, ObserveDuration) are
// lock-free; registration and exposition take the registry lock.
// Callback metrics must not call back into the registry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter series (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Histogram returns the histogram series (name, labels), creating it on
// first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels)
	if s.hist == nil {
		s.hist = NewHistogram()
	}
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — the bridge that promotes counters already maintained
// elsewhere (engine shard atomics, store writer totals) into the
// registry without double accounting. fn must be safe for concurrent
// use and must not touch the registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindCounter, labels)
	s.fn = fn
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time. fn must be safe for concurrent use and must not touch the
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, kindGauge, labels)
	s.fn = fn
}

// Value returns the current value of the counter or gauge series
// (name, labels); ok is false for absent series and histograms. This is
// the accessor JSON views use so they can never drift from /metrics.
func (r *Registry) Value(name string, labels ...Label) (v float64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		return 0, false
	}
	s := fam.series[signature(sortedLabels(labels))]
	if s == nil {
		return 0, false
	}
	switch {
	case s.fn != nil:
		return s.fn(), true
	case s.counter != nil:
		return float64(s.counter.Value()), true
	default:
		return 0, false
	}
}

// HistogramSnapshot is a point-in-time summary of one histogram
// series, the form JSON views (mobiserve /stats, mobiload -verbose)
// surface so operators can read latency without a Prometheus server.
// Quantiles are lower bucket edges in seconds, per the histogram's
// ~4.5% log-bucket resolution.
//
// Beyond the quantiles, a snapshot carries the exact mergeable state —
// the integer nanosecond sum and the sparse populated buckets — so a
// snapshot can be folded back into a Histogram with MergeSnapshot
// without losing fidelity. That is the wire contract the multi-node
// router's aggregated /stats relies on: each worker serializes its
// histograms, the router merges the snapshots, and the fleet-wide
// quantiles are bit-identical to a single process observing the same
// values.
type HistogramSnapshot struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"` // canonical signature, e.g. `route="/ingest"`
	Count  uint64  `json:"count"`
	Sum    float64 `json:"sum_s"`
	P50    float64 `json:"p50_s"`
	P95    float64 `json:"p95_s"`
	P99    float64 `json:"p99_s"`

	// SumNs is the exact integer nanosecond sum (Sum is its lossy
	// float64-seconds rendering); Bins lists the populated buckets of
	// the histogram's fixed log-spaced geometry. Together with Count
	// they are the histogram's full state.
	SumNs uint64         `json:"sum_ns,omitempty"`
	Bins  []HistogramBin `json:"bins,omitempty"`
}

// HistogramBin is one populated bucket in a HistogramSnapshot: the bin
// index within the histogram's fixed 1025-slot log-spaced geometry and
// the number of observations it holds.
type HistogramBin struct {
	Bin   int    `json:"bin"`
	Count uint64 `json:"count"`
}

// HistogramSnapshots summarizes every histogram series in the
// registry, sorted by (name, label signature) — the same canonical
// order WritePrometheus uses, so JSON and exposition views enumerate
// identically.
func (r *Registry) HistogramSnapshots() []HistogramSnapshot {
	r.mu.Lock()
	var hists []struct {
		name, sig string
		h         *Histogram
	}
	for name, fam := range r.families {
		if fam.kind != kindHistogram {
			continue
		}
		for _, s := range fam.series {
			if s.hist != nil {
				hists = append(hists, struct {
					name, sig string
					h         *Histogram
				}{name, s.sig, s.hist})
			}
		}
	}
	r.mu.Unlock()
	sort.Slice(hists, func(i, j int) bool {
		if hists[i].name != hists[j].name {
			return hists[i].name < hists[j].name
		}
		return hists[i].sig < hists[j].sig
	})
	out := make([]HistogramSnapshot, 0, len(hists))
	for _, e := range hists {
		out = append(out, e.h.Snapshot(e.name, e.sig))
	}
	return out
}

// register returns the series for (name, labels), creating family and
// series as needed and enforcing name/kind/help consistency.
func (r *Registry) register(name, help string, k kind, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l.Name, name))
		}
	}
	ls := sortedLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.families[name] = fam
	} else if fam.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, fam.kind))
	} else if fam.help != help {
		panic(fmt.Sprintf("obs: metric %q re-registered with different help", name))
	}
	sig := signature(ls)
	s := fam.series[sig]
	if s == nil {
		s = &series{labels: ls, sig: sig}
		fam.series[sig] = s
	}
	return s
}

// sortedLabels returns a copy of labels in canonical (name-sorted)
// order.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

// signature renders the canonical label key used to identify a series
// within its family; it doubles as the exposition sort key.
func signature(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name is a legal Prometheus label name.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
