package risk

import (
	"fmt"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/poi"
	"mobipriv/internal/trace"
)

// DefaultMaxPending is the candidate-run buffer cap used when a caller
// passes maxPending <= 0 to NewAccumulator and by DefaultMonitorConfig.
// At 1 Hz sampling it covers a run of more than half an hour before the
// detector sheds state, far beyond any MinDuration in use.
const DefaultMaxPending = 2048

// Accumulator is the incremental stay-point detector: the streaming
// form of poi.Stays. Points enter through Push in time order; a stay is
// returned the moment its run breaks, and Flush drains the run still
// open at end of stream.
//
// State is bounded. A candidate run whose span is still below
// MinDuration is buffered point-by-point (at most MaxPending points);
// the moment the span reaches MinDuration the run is guaranteed to be
// emitted whenever it breaks, so the buffer is compacted into an O(1)
// summary (anchor, centroid accumulator, boundaries). If the pending
// buffer overflows — possible only with sub-second sampling or a huge
// MinDuration — the buffered points are dropped, the newest point is
// kept, and Overflows is incremented; stays whose run never overflowed
// are still exact.
//
// With an unbounded buffer (see NewExactAccumulator) the sequence of
// stays is bit-identical to poi.Stays on the same points: same
// centroids (geo.CentroidAcc folds the observations in the same order),
// same Enter/Leave/Count.
//
// An Accumulator is not safe for concurrent use.
type Accumulator struct {
	cfg        poi.Config
	maxPending int // 0 = unbounded

	pending   []trace.Point // candidate run: all within MaxDiameter of pending[0], span < MinDuration
	run       *runSummary   // compacted run with span >= MinDuration, emission guaranteed
	overflows int
}

// runSummary is the O(1) compaction of a run that already spans
// MinDuration: it can only grow or be emitted, never be re-anchored, so
// the individual points are no longer needed.
type runSummary struct {
	anchor      geo.Point
	enter, last time.Time
	acc         geo.CentroidAcc
}

// NewAccumulator returns a detector for the given stay configuration
// with the pending buffer capped at maxPending points (<= 0 selects
// DefaultMaxPending).
func NewAccumulator(cfg poi.Config, maxPending int) (*Accumulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("risk: %w", err)
	}
	if maxPending <= 0 {
		maxPending = DefaultMaxPending
	}
	return &Accumulator{cfg: cfg, maxPending: maxPending}, nil
}

// NewExactAccumulator returns a detector with an unbounded pending
// buffer: its output is exactly that of poi.Stays. The attack path uses
// it (traces are visited one at a time, so the buffer is transient);
// long-lived per-user monitors should cap the buffer instead.
func NewExactAccumulator(cfg poi.Config) (*Accumulator, error) {
	a, err := NewAccumulator(cfg, 1)
	if err != nil {
		return nil, err
	}
	a.maxPending = 0
	return a, nil
}

// Push feeds the next observation and returns the stay completed by it,
// if any. Points must arrive in non-decreasing time order for the
// batch-equivalence guarantee to hold; out-of-order points are
// tolerated (no panic) but detection quality degrades.
func (a *Accumulator) Push(p trace.Point) (poi.Stay, bool) {
	if a.run != nil {
		if geo.FastDistance(a.run.anchor, p.Point) <= a.cfg.MaxDiameter {
			a.run.acc.Add(p.Point)
			a.run.last = p.Time
			return poi.Stay{}, false
		}
		stay := a.emitRun()
		a.pending = append(a.pending[:0], p)
		return stay, true
	}
	if len(a.pending) == 0 {
		a.pending = append(a.pending, p)
		return poi.Stay{}, false
	}
	if geo.FastDistance(a.pending[0].Point, p.Point) <= a.cfg.MaxDiameter {
		a.append(p)
		return poi.Stay{}, false
	}
	// The run broke while still below MinDuration: mirror the batch
	// algorithm's anchor slide (i++). Every sub-run of the buffer spans
	// less than MinDuration, so no stay can be emitted here; we only
	// need the longest suffix that forms a run absorbing p.
	a.slide(p)
	return poi.Stay{}, false
}

// Flush drains the detector at end of stream: the compacted run, if
// one is open, is emitted (the batch detector emits it too — the run
// breaks at end of input with span >= MinDuration). A pending buffer
// spans less than MinDuration by invariant and yields nothing. The
// detector is reset and ready for the next stream.
func (a *Accumulator) Flush() (poi.Stay, bool) {
	if a.run != nil {
		return a.emitRun(), true
	}
	a.pending = a.pending[:0]
	return poi.Stay{}, false
}

// append adds p to the pending run and compacts to a summary once the
// span reaches MinDuration (emission is then guaranteed).
func (a *Accumulator) append(p trace.Point) {
	a.pending = append(a.pending, p)
	if p.Time.Sub(a.pending[0].Time) >= a.cfg.MinDuration {
		a.compact()
		return
	}
	if a.maxPending > 0 && len(a.pending) > a.maxPending {
		a.overflows++
		a.pending = append(a.pending[:0], p)
	}
}

// compact folds the pending buffer into the O(1) run summary.
func (a *Accumulator) compact() {
	r := &runSummary{
		anchor: a.pending[0].Point,
		enter:  a.pending[0].Time,
		last:   a.pending[len(a.pending)-1].Time,
	}
	for _, q := range a.pending {
		r.acc.Add(q.Point)
	}
	a.run = r
	a.pending = a.pending[:0]
}

// emitRun converts the open run summary into its stay and clears it.
func (a *Accumulator) emitRun() poi.Stay {
	center, _ := a.run.acc.Result()
	stay := poi.Stay{
		Center: center,
		Enter:  a.run.enter,
		Leave:  a.run.last,
		Count:  a.run.acc.N(),
	}
	a.run = nil
	return stay
}

// slide advances the anchor one point at a time — exactly the batch
// algorithm's i++ — until the remaining suffix plus p forms a run from
// the new anchor, or the buffer empties and p starts a fresh run.
func (a *Accumulator) slide(p trace.Point) {
	for len(a.pending) > 0 {
		a.pending = a.pending[1:]
		if len(a.pending) == 0 {
			break
		}
		anchor := a.pending[0].Point
		ok := geo.FastDistance(anchor, p.Point) <= a.cfg.MaxDiameter
		for _, q := range a.pending[1:] {
			if !ok {
				break
			}
			ok = geo.FastDistance(anchor, q.Point) <= a.cfg.MaxDiameter
		}
		if ok {
			a.append(p)
			return
		}
	}
	a.pending = append(a.pending[:0], p)
}

// TraceStays runs the detector over a whole trace and returns its
// stays; with an exact accumulator this equals poi.Stays(tr, cfg).
func (a *Accumulator) TraceStays(tr *trace.Trace) []poi.Stay {
	if tr == nil {
		return nil
	}
	var out []poi.Stay
	for _, p := range tr.Points {
		if s, ok := a.Push(p); ok {
			out = append(out, s)
		}
	}
	if s, ok := a.Flush(); ok {
		out = append(out, s)
	}
	return out
}
