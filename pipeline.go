package mobipriv

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mobipriv/internal/core"
	"mobipriv/internal/mixzone"
	"mobipriv/internal/rng"
	"mobipriv/internal/trace"
)

// Stage is one composable step of an anonymization pipeline. A stage
// transforms the dataset flowing through it and appends a StageReport
// (plus any ground-truth metadata) to the shared Result.
//
// Stages must be immutable values, safe for concurrent use.
type Stage interface {
	// StageName labels the stage's report.
	StageName() string
	// Run transforms the dataset. It must not modify its input.
	Run(ctx context.Context, d *Dataset, res *Result) (*Dataset, error)
}

// Pipeline composes stages into a Mechanism named "pipeline": the
// dataset flows through the stages in order while the Result
// accumulates their reports. The paper's full mechanism is
//
//	Pipeline(DefaultMixZoneSwap(), DefaultSpeedSmooth(), DefaultPseudonymize())
//
// but any subset, ordering, or custom Stage composes the same way.
//
// Ordering note: mix-zones are detected and applied on the ORIGINAL
// timing, and speed smoothing runs afterwards on the swapped composite
// traces. The paper's Figure 1 presents the stages in the opposite
// order, but detection must see real simultaneity — after time
// distortion, users who met in reality no longer co-occur in published
// time, and the zone supply collapses (measured in E12). Swapping first
// and smoothing second also erases the swap seams: each published trace
// is a single constant-speed journey with no visible suture inside the
// zone.
func Pipeline(stages ...Stage) Mechanism {
	return pipelineMechanism{name: "pipeline", stages: stages}
}

type pipelineMechanism struct {
	name   string
	stages []Stage
}

func (p pipelineMechanism) Name() string { return p.name }

func (p pipelineMechanism) Apply(ctx context.Context, d *Dataset) (*Result, error) {
	if d == nil {
		return nil, errors.New("mobipriv: nil dataset")
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("mobipriv: %w", err)
	}
	res := &Result{}
	working := d
	for _, st := range p.stages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, err := st.Run(ctx, working, res)
		if err != nil {
			return nil, fmt.Errorf("mobipriv: %s: %w", st.StageName(), err)
		}
		working = next
	}
	res.Dataset = working
	return res, nil
}

// MixZoneSwap is the trajectory-swapping stage: wherever users actually
// meet (on the original timing), the few observations inside the
// meeting area are suppressed and the user identifiers of the crossing
// traces are shuffled, breaking trace linkability. It records the
// swap ground truth on the Result (OriginalAt, MajorityOwner).
type MixZoneSwap struct {
	// Radius is the mix-zone radius in meters. Must be positive.
	Radius float64
	// Window is the co-location window for meeting detection. Must be
	// positive.
	Window time.Duration
	// Cooldown limits repeated zones for the same user pair. Must be
	// non-negative.
	Cooldown time.Duration
	// Seed drives the swap permutations.
	Seed int64
	// DisableSwap keeps zone suppression but never swaps identities
	// (ablation).
	DisableSwap bool
	// DisableSuppress keeps swapping but publishes in-zone points
	// (ablation).
	DisableSuppress bool
}

// DefaultMixZoneSwap returns the stage at the paper's operating point:
// 100 m zones, 1-minute window, 15-minute cooldown.
func DefaultMixZoneSwap() MixZoneSwap {
	return MixZoneSwap{Radius: 100, Window: time.Minute, Cooldown: 15 * time.Minute, Seed: 1}
}

// StageName implements Stage.
func (s MixZoneSwap) StageName() string { return "mixzones" }

func (s MixZoneSwap) validate() error {
	switch {
	case s.Radius <= 0:
		return errors.New("Radius must be positive")
	case s.Window <= 0:
		return errors.New("Window must be positive")
	case s.Cooldown < 0:
		return errors.New("Cooldown must be non-negative")
	}
	return nil
}

// Run implements Stage.
func (s MixZoneSwap) Run(ctx context.Context, d *Dataset, res *Result) (*Dataset, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	mz, err := mixzone.Apply(d, mixzone.Config{
		Radius:         s.Radius,
		Window:         s.Window,
		Cooldown:       s.Cooldown,
		SwapSeed:       s.Seed,
		NoSwap:         s.DisableSwap,
		NoSuppress:     s.DisableSuppress,
		SuppressWindow: 0,
	})
	if err != nil {
		return nil, err
	}
	res.AddReport(StageReport{
		Stage:      s.StageName(),
		Zones:      len(mz.Zones),
		Swaps:      mz.SwapCount(),
		Suppressed: mz.Suppressed,
		Dropped:    mz.DroppedUsers,
	})
	res.setSegments(mz.Segments)
	return mz.Dataset, nil
}

// SpeedSmooth is the speed-smoothing (time-distortion) stage: every
// trace is re-published with uniform spacing between points and uniform
// timestamps, so the user appears to move at constant speed and her
// stops (points of interest) are no longer visible. Traces too short to
// survive end-trimming are dropped and reported.
//
// Smoothing is independent per trace; under a Runner with
// WithWorkers(n) the traces are fanned across n workers with output
// identical to the serial run.
type SpeedSmooth struct {
	// Epsilon is the published inter-point spacing in meters. Must be
	// positive.
	Epsilon float64
	// Trim is the path distance removed from both trace ends, hiding
	// the first and last stops. Negative means "equal to Epsilon";
	// zero disables trimming.
	Trim float64
}

// DefaultSpeedSmooth returns the stage at the paper's operating point:
// 100 m spacing, trim = Epsilon.
func DefaultSpeedSmooth() SpeedSmooth { return SpeedSmooth{Epsilon: 100, Trim: -1} }

// StageName implements Stage.
func (s SpeedSmooth) StageName() string { return "smooth" }

// Run implements Stage.
func (s SpeedSmooth) Run(ctx context.Context, d *Dataset, res *Result) (*Dataset, error) {
	smoothed, rep, err := core.SmoothDatasetCtx(ctx, d, core.Config{Epsilon: s.Epsilon, Trim: s.Trim})
	if err != nil {
		return nil, err
	}
	res.AddReport(StageReport{Stage: s.StageName(), Dropped: rep.Dropped})
	return smoothed, nil
}

// Pseudonymize replaces user identifiers with opaque pseudonyms
// (Prefix000, Prefix001, ...) and records the forward and reverse
// pseudonym maps on the Result. An empty Prefix keeps the — possibly
// swapped — original labels (useful for debugging) while still
// recording the identity mapping.
type Pseudonymize struct {
	// Prefix names output identities Prefix000, Prefix001, ...
	Prefix string
	// Seed scrambles the assignment order so pseudonyms are
	// deterministic but label-decorrelated.
	Seed int64
}

// DefaultPseudonymize returns the stage used across the experiments:
// prefix "p", seed 1.
func DefaultPseudonymize() Pseudonymize { return Pseudonymize{Prefix: "p", Seed: 1} }

// StageName implements Stage.
func (s Pseudonymize) StageName() string { return "pseudonymize" }

// Run implements Stage.
func (s Pseudonymize) Run(ctx context.Context, d *Dataset, res *Result) (*Dataset, error) {
	forward := make(map[string]string, d.Len())
	if s.Prefix == "" {
		for _, u := range d.Users() {
			forward[u] = u
		}
		res.setPseudonyms(forward)
		res.AddReport(StageReport{Stage: s.StageName()})
		return d, nil
	}
	// Deterministic but label-decorrelated assignment: sort users, then
	// assign pseudonyms in an order scrambled by the seed.
	users := d.Users()
	perm := seededPerm(len(users), s.Seed)
	for i, u := range users {
		forward[u] = fmt.Sprintf("%s%03d", s.Prefix, perm[i])
	}
	renamed := make([]*Trace, 0, d.Len())
	for _, tr := range d.Traces() {
		cp := tr.Clone()
		cp.User = forward[tr.User]
		renamed = append(renamed, cp)
	}
	out, err := trace.NewDataset(renamed)
	if err != nil {
		return nil, err
	}
	res.setPseudonyms(forward)
	res.AddReport(StageReport{Stage: s.StageName()})
	return out, nil
}

// seededPerm returns a deterministic permutation of [0, n) derived from
// the seed without importing math/rand here: a simple multiplicative
// shuffle keyed by splitmix64.
func seededPerm(n int, seed int64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	s := uint64(seed) ^ rng.Gamma
	next := func() uint64 {
		s += rng.Gamma
		return rng.Mix(s)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// PerTraceStage is the optional capability a Stage grows when its Run
// transforms every trace independently: PerTrace returns the function
// equivalent of Run on a single trace, or nil when THIS configuration
// of the stage is not trace-independent (e.g. Pseudonymize with a
// non-empty prefix numbers users globally). A pipeline whose stages all
// return non-nil composes them into a mechanism-level PerTrace, making
// the spec eligible for store-native runs (Runner.RunStore).
type PerTraceStage interface {
	Stage
	PerTrace() PerTraceFunc
}

// PerTrace implements PerTraceStage: smoothing is independent per
// trace, with the same drops the batch stage reports.
func (s SpeedSmooth) PerTrace() PerTraceFunc {
	return perTracePromesse(s.Epsilon, s.Trim)
}

// PerTrace implements PerTraceStage. Only the empty-prefix form is
// trace-independent: assigning Prefix000, Prefix001, ... requires the
// full sorted user list.
func (s Pseudonymize) PerTrace() PerTraceFunc {
	if s.Prefix != "" {
		return nil
	}
	return perTraceRaw()
}

// PerTrace composes the stages' per-trace forms, or returns nil when
// any stage lacks one in its current configuration (MixZoneSwap never
// has one — meeting detection is inherently cross-trace).
func (p pipelineMechanism) PerTrace() PerTraceFunc {
	fns := make([]PerTraceFunc, 0, len(p.stages))
	for _, st := range p.stages {
		pt, ok := st.(PerTraceStage)
		if !ok {
			return nil
		}
		fn := pt.PerTrace()
		if fn == nil {
			return nil
		}
		fns = append(fns, fn)
	}
	return func(ctx context.Context, tr *Trace) (*Trace, error) {
		for _, fn := range fns {
			var err error
			if tr, err = fn(ctx, tr); err != nil || tr == nil {
				return nil, err
			}
		}
		return tr, nil
	}
}
