// Package core implements the primary contribution of the paper: the
// speed-smoothing (time-distortion) anonymization mechanism.
//
// A raw mobility trace betrays its user's points of interest because
// stops appear as dense clusters of observations. Instead of perturbing
// locations, the mechanism re-publishes the trace so that the user
// appears to move at constant speed along her own path:
//
//  1. the trace geometry is taken as a polyline and re-sampled at a
//     uniform arc-length spacing ε (the only spatial error introduced is
//     interpolation error, bounded by the geometry between samples);
//  2. timestamps are re-assigned uniformly between the trace's start and
//     end instants, so every published segment has the same duration and
//     the same length — constant speed, no stationary point;
//  3. a configurable distance is trimmed from both ends of the path:
//     the first and last stops of a trace (typically home) would
//     otherwise remain identifiable as the endpoints of the published
//     geometry.
//
// Time is distorted; space is almost untouched.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mobipriv/internal/geo"
	"mobipriv/internal/par"
	"mobipriv/internal/trace"
)

// Common errors returned by the smoother.
var (
	// ErrTraceTooShort reports a trace whose path is too short to survive
	// end trimming plus at least two output samples.
	ErrTraceTooShort = errors.New("core: trace too short to anonymize")
	// ErrZeroDuration reports a trace whose observations span no time.
	ErrZeroDuration = errors.New("core: trace has zero duration")
)

// Config parameterizes the speed smoother.
type Config struct {
	// Epsilon is the target spacing in meters between consecutive
	// published points. Smaller values preserve geometry better; larger
	// values merge more movement into straight segments. The paper's
	// companion evaluation uses 100 m as the default operating point.
	Epsilon float64
	// Trim is the path distance in meters removed from each end of the
	// trace before resampling, hiding the first and last stops. A
	// negative value means "use Epsilon". Zero disables trimming (used by
	// the E12 ablation).
	Trim float64
}

// DefaultConfig returns the operating point used across the experiments.
func DefaultConfig() Config {
	return Config{Epsilon: 100, Trim: -1}
}

func (c Config) trim() float64 {
	if c.Trim < 0 {
		return c.Epsilon
	}
	return c.Trim
}

func (c Config) validate() error {
	if c.Epsilon <= 0 {
		return errors.New("core: Epsilon must be positive")
	}
	return nil
}

// Smooth applies the speed-smoothing mechanism to one trace and returns
// the anonymized copy (same user identifier; identifier handling is the
// mix-zone step's job).
//
// The published trace:
//   - follows exactly the original path geometry (every output point
//     lies on the original polyline);
//   - has consecutive points ε apart (except possibly the final gap);
//   - has uniformly spaced timestamps spanning the original time window,
//     so speed is constant;
//   - excludes the first and last Trim meters of the path.
func Smooth(tr *trace.Trace, cfg Config) (*trace.Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if tr.Duration() <= 0 {
		return nil, fmt.Errorf("%w: user %q", ErrZeroDuration, tr.User)
	}
	// Collapse stationary jitter before measuring the path: while the
	// user is stopped, GPS noise draws a dense scribble that would
	// otherwise inflate the arc length at the stop and re-create a
	// slow-speed segment there, defeating the mechanism. Keeping only
	// points at least ε from the last kept point erases that scribble
	// while leaving genuine movement intact.
	pl, err := geo.NewPolyline(simplify(tr.Positions(), cfg.Epsilon))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	trim := cfg.trim()
	usable := pl.Length() - 2*trim
	// We need at least two output points ε apart to publish a moving
	// trace.
	if usable < cfg.Epsilon {
		return nil, fmt.Errorf("%w: user %q (path %.0f m, trim %.0f m, epsilon %.0f m)",
			ErrTraceTooShort, tr.User, pl.Length(), trim, cfg.Epsilon)
	}
	// Uniform spatial sampling of the trimmed path.
	n := int(usable/cfg.Epsilon) + 1
	positions := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		positions[i] = pl.PointAt(trim + float64(i)*cfg.Epsilon)
	}
	// Uniform time assignment across the original observation window.
	start := tr.Start().Time
	total := tr.Duration()
	step := total / time.Duration(n-1)
	if step <= 0 {
		return nil, fmt.Errorf("%w: user %q (%d points over %v)", ErrZeroDuration, tr.User, n, total)
	}
	pts := make([]trace.Point, n)
	for i := range positions {
		pts[i] = trace.Point{Point: positions[i], Time: start.Add(time.Duration(i) * step)}
	}
	out, err := trace.New(tr.User, pts)
	if err != nil {
		return nil, fmt.Errorf("core: build smoothed trace: %w", err)
	}
	return out, nil
}

// simplify returns the positions filtered so that consecutive kept
// points are at least minDist apart; the first point is always kept and
// the final point is appended if filtering dropped it (so the published
// path still reaches the end of the journey before trimming).
func simplify(positions []geo.Point, minDist float64) []geo.Point {
	out := make([]geo.Point, 0, len(positions))
	out = append(out, positions[0])
	for _, p := range positions[1:] {
		if geo.FastDistance(out[len(out)-1], p) >= minDist {
			out = append(out, p)
		}
	}
	if last := positions[len(positions)-1]; !out[len(out)-1].Equal(last) {
		out = append(out, last)
	}
	return out
}

// Report describes the outcome of smoothing a whole dataset.
type Report struct {
	// Dropped lists the users whose traces were too short to anonymize
	// (per the mechanism, publishing them would leak their endpoints).
	Dropped []string
}

// SmoothDataset applies Smooth to every trace of the dataset. Traces
// that are too short to anonymize are dropped — publishing them would
// reveal endpoints — and reported. Any other failure aborts.
func SmoothDataset(d *trace.Dataset, cfg Config) (*trace.Dataset, Report, error) {
	return SmoothDatasetCtx(context.Background(), d, cfg)
}

// SmoothDatasetCtx is SmoothDataset honoring context cancellation and
// fanning the per-trace work across the context's worker budget
// (par.Workers). Smoothing one trace is independent of every other, and
// results are collected by index, so the output is byte-identical to
// the serial run regardless of worker count.
func SmoothDatasetCtx(ctx context.Context, d *trace.Dataset, cfg Config) (*trace.Dataset, Report, error) {
	var rep Report
	traces := d.Traces()
	smoothed := make([]*trace.Trace, len(traces)) // nil marks a dropped trace
	dropped := make([]bool, len(traces))
	err := par.Map(ctx, len(traces), func(i int) error {
		sm, err := Smooth(traces[i], cfg)
		if err != nil {
			if errors.Is(err, ErrTraceTooShort) || errors.Is(err, ErrZeroDuration) {
				dropped[i] = true
				return nil
			}
			return err
		}
		smoothed[i] = sm
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	out := make([]*trace.Trace, 0, len(traces))
	for i, sm := range smoothed {
		if dropped[i] {
			rep.Dropped = append(rep.Dropped, traces[i].User)
			continue
		}
		out = append(out, sm)
	}
	ds, err := trace.NewDataset(out)
	if err != nil {
		return nil, rep, fmt.Errorf("core: assemble dataset: %w", err)
	}
	return ds, rep, nil
}
