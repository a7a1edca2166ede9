package mobipriv

import (
	"context"
	"sort"
	"time"

	"mobipriv/internal/mixzone"
)

// Mechanism is one anonymization under a common contract: every CLI,
// example, experiment and benchmark in this repository resolves
// mechanisms through this interface (usually via FromSpec) instead of
// wiring concrete packages by hand.
//
// Implementations must be immutable and safe for concurrent use; each
// Apply call is self-contained. Apply must not modify the input
// dataset. Parallel execution is a property of the runtime, not of the
// mechanism: a Runner configured with WithWorkers passes the worker
// budget through the context, and mechanisms with per-trace work fan
// out accordingly while producing output identical to a serial run.
type Mechanism interface {
	// Name identifies the mechanism, parameters included; for
	// mechanisms resolved by FromSpec it is the normalized spec and
	// round-trips through FromSpec.
	Name() string
	// Apply anonymizes the dataset. It honors ctx cancellation and the
	// ctx worker budget set by Runner.
	Apply(ctx context.Context, d *Dataset) (*Result, error)
}

// mechanismFunc is the Mechanism implementation behind NewMechanism and
// the built-in registrations. The built-ins also fill the optional
// capabilities; a nil field means the mechanism lacks that capability.
type mechanismFunc struct {
	name     string
	fn       func(context.Context, *Dataset) (*Result, error)
	stream   StreamFactory
	perTrace PerTraceFunc
}

func (m mechanismFunc) Name() string { return m.name }
func (m mechanismFunc) Apply(ctx context.Context, d *Dataset) (*Result, error) {
	return m.fn(ctx, d)
}

// Streaming implements Streamer; nil when the mechanism is batch-only.
func (m mechanismFunc) Streaming() StreamFactory { return m.stream }

// PerTrace implements PerTracer; nil when the mechanism needs the whole
// dataset.
func (m mechanismFunc) PerTrace() PerTraceFunc { return m.perTrace }

// NewMechanism wraps an apply function as a Mechanism, for callers
// registering custom mechanisms with Register.
func NewMechanism(name string, fn func(context.Context, *Dataset) (*Result, error)) Mechanism {
	return mechanismFunc{name: name, fn: fn}
}

// named re-labels a mechanism with the normalized spec it was resolved
// from, so Name round-trips through FromSpec.
type named struct {
	name string
	Mechanism
}

func (n named) Name() string { return n.name }

// unnamed strips the name layer FromSpec adds, so capability probes see
// the mechanism the factory built.
func unnamed(m Mechanism) Mechanism {
	if n, ok := m.(named); ok {
		return n.Mechanism
	}
	return m
}

// StageReport describes what one pipeline stage (or one single-stage
// mechanism) did to the dataset flowing through it.
type StageReport struct {
	// Stage is the stage name ("mixzones", "smooth", "pseudonymize",
	// or a baseline mechanism name).
	Stage string
	// Zones is the number of natural mix-zones exploited (mix-zone
	// stage only).
	Zones int
	// Swaps is the number of zones whose permutation actually changed
	// identities (mix-zone stage only).
	Swaps int
	// Suppressed counts observations removed by the stage.
	Suppressed int
	// Dropped lists users whose traces the stage withheld entirely.
	Dropped []string
}

// Result is the outcome of applying a mechanism: the publishable
// dataset plus per-stage reports and — for the paper's pipeline — the
// evaluation ground truth (which a real publisher must keep secret).
type Result struct {
	// Dataset is the publishable anonymized dataset.
	Dataset *Dataset
	// Reports accumulates one StageReport per stage, in execution
	// order. Aggregates over all stages are available as methods
	// (Zones, Swaps, SuppressedPoints, DroppedUsers).
	Reports []StageReport

	segments  []mixzone.Segment // ground truth over pre-pseudonym labels
	pseudonym map[string]string // pre-pseudonym label -> published label
	original  map[string]string // published label -> pre-pseudonym label
}

// AddReport appends a stage report; stages and adapters call it while
// the dataset flows through them.
func (r *Result) AddReport(rep StageReport) { r.Reports = append(r.Reports, rep) }

// Report returns the report of the named stage, if any.
func (r *Result) Report(stage string) (StageReport, bool) {
	for _, rep := range r.Reports {
		if rep.Stage == stage {
			return rep, true
		}
	}
	return StageReport{}, false
}

// Zones is the total number of natural mix-zones exploited.
func (r *Result) Zones() int {
	var n int
	for _, rep := range r.Reports {
		n += rep.Zones
	}
	return n
}

// Swaps is the total number of zones whose permutation actually changed
// identities.
func (r *Result) Swaps() int {
	var n int
	for _, rep := range r.Reports {
		n += rep.Swaps
	}
	return n
}

// SuppressedPoints is the total number of observations suppressed by
// all stages.
func (r *Result) SuppressedPoints() int {
	var n int
	for _, rep := range r.Reports {
		n += rep.Suppressed
	}
	return n
}

// DroppedUsers lists the original users whose traces were withheld by
// any stage, sorted.
func (r *Result) DroppedUsers() []string {
	var out []string
	for _, rep := range r.Reports {
		out = append(out, rep.Dropped...)
	}
	sort.Strings(out)
	return out
}

// OriginalAt reports which original user's observations the published
// identity carries at the given instant. This is secret ground truth for
// evaluation; a real publisher would not release it. It is only
// populated by pipelines containing a MixZoneSwap stage.
//
// Caveat: the instant refers to the pre-smoothing timeline. Smoothing
// re-distributes timestamps along each composite path, so time-pointwise
// lookups are approximate near swap seams; identity-level conclusions
// (MajorityOwner, final identity) are exact.
func (r *Result) OriginalAt(published string, ts time.Time) (string, bool) {
	pre, ok := r.prePseudonym(published)
	if !ok {
		return "", false
	}
	if r.segments == nil {
		// No swapping stage ran: every published identity carries its
		// own (pre-pseudonym) journey end to end.
		if r.Dataset == nil || r.Dataset.ByUser(published) == nil {
			return "", false
		}
		return pre, true
	}
	for _, s := range r.segments {
		if s.Output == pre && !ts.Before(s.From) && !ts.After(s.To) {
			return s.Original, true
		}
	}
	return "", false
}

// MajorityOwner returns the original user contributing the longest total
// time to the published identity, or "" if unknown.
func (r *Result) MajorityOwner(published string) string {
	pre, ok := r.prePseudonym(published)
	if !ok {
		return ""
	}
	if r.segments == nil {
		if r.Dataset == nil || r.Dataset.ByUser(published) == nil {
			return ""
		}
		return pre
	}
	totals := make(map[string]time.Duration)
	for _, s := range r.segments {
		if s.Output == pre {
			totals[s.Original] += s.To.Sub(s.From)
		}
	}
	var best string
	var bestDur time.Duration = -1
	owners := make([]string, 0, len(totals))
	for u := range totals {
		owners = append(owners, u)
	}
	sort.Strings(owners)
	for _, u := range owners {
		if totals[u] > bestDur {
			best, bestDur = u, totals[u]
		}
	}
	return best
}

// PseudonymOf returns the published label of a pre-pseudonym identity.
// Evaluation-only.
func (r *Result) PseudonymOf(preLabel string) (string, bool) {
	if r.pseudonym == nil {
		// No pseudonymization stage ran: identities pass through.
		return preLabel, true
	}
	p, ok := r.pseudonym[preLabel]
	return p, ok
}

// prePseudonym resolves a published label back to its pre-pseudonym
// label via the reverse map built at pseudonymization time.
func (r *Result) prePseudonym(published string) (string, bool) {
	if r.original == nil {
		return published, true
	}
	pre, ok := r.original[published]
	return pre, ok
}

// setSegments records the mix-zone ground truth (pre-pseudonym labels).
func (r *Result) setSegments(segs []mixzone.Segment) { r.segments = segs }

// setPseudonyms records the forward and reverse pseudonym maps.
func (r *Result) setPseudonyms(forward map[string]string) {
	r.pseudonym = forward
	r.original = make(map[string]string, len(forward))
	for pre, pub := range forward {
		r.original[pub] = pre
	}
}
