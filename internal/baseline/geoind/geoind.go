// Package geoind implements the planar Laplace mechanism of Andrés et
// al., "Geo-indistinguishability: Differential Privacy for
// Location-based Systems" (CCS'13) — the location-perturbation baseline
// the paper compares against (reference [2]).
//
// Every observation is displaced independently by polar Laplace noise:
// the angle is uniform and the radius follows the distribution with CDF
// C_ε(r) = 1 − (1 + εr)·e^{−εr}, sampled by inverting the CDF with the
// Lambert W function (branch −1), exactly as in the original paper. The
// mechanism satisfies ε-geo-indistinguishability; its expected
// displacement is 2/ε meters.
package geoind

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"mobipriv/internal/geo"
	"mobipriv/internal/par"
	"mobipriv/internal/rng"
	"mobipriv/internal/trace"
)

// Config parameterizes the mechanism.
type Config struct {
	// Epsilon is the privacy parameter in 1/meters. Typical evaluation
	// range: 0.001 (strong privacy, ~2 km expected noise) to 0.1 (weak,
	// ~20 m).
	Epsilon float64
	// Seed makes the noise reproducible.
	Seed int64
}

func (c Config) validate() error {
	if c.Epsilon <= 0 || math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		return errors.New("geoind: Epsilon must be a positive finite number")
	}
	return nil
}

// Mechanism perturbs traces with planar Laplace noise. Create it with
// NewForUser; it is not safe for concurrent use (it owns a rand.Rand).
type Mechanism struct {
	cfg Config
	rng *rand.Rand
}

// NewForUser returns a mechanism whose noise stream is derived from
// (cfg.Seed, user) exactly as PerturbDatasetCtx derives per-trace RNGs,
// so feeding a user's observations through PerturbPoint one at a time
// (in order) reproduces the batch output byte for byte. This is the
// constructor the streaming adapter uses.
func NewForUser(cfg Config, user string) (*Mechanism, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Mechanism{cfg: cfg, rng: rand.New(rand.NewSource(traceSeed(cfg.Seed, user)))}, nil
}

// PerturbPoint displaces one observation by planar Laplace noise,
// advancing the mechanism's noise stream by one draw. The timestamp is
// unchanged.
func (m *Mechanism) PerturbPoint(p trace.Point) trace.Point {
	dx, dy := m.SampleNoise()
	return trace.Point{Point: geo.Offset(p.Point, dx, dy), Time: p.Time}
}

// SampleNoise draws one polar Laplace displacement (dx, dy) in meters.
func (m *Mechanism) SampleNoise() (dx, dy float64) {
	theta := m.rng.Float64() * 2 * math.Pi
	p := m.rng.Float64()
	r := inverseCDF(m.cfg.Epsilon, p)
	return r * math.Cos(theta), r * math.Sin(theta)
}

// inverseCDF returns C_ε^{-1}(p): the radius below which a fraction p of
// the noise mass lies. Following Andrés et al.:
//
//	r = −(1/ε)·(W_{−1}((p−1)/e) + 1)
func inverseCDF(epsilon, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		p = math.Nextafter(1, 0)
	}
	w := lambertWm1((p - 1) / math.E)
	return -(w + 1) / epsilon
}

// lambertWm1 evaluates the secondary real branch W_{−1} of the Lambert W
// function on its domain [−1/e, 0). It solves w·e^w = x with w ≤ −1 by
// Halley iteration from the standard asymptotic initial guess.
func lambertWm1(x float64) float64 {
	if x < -1/math.E || x >= 0 {
		return math.NaN()
	}
	if x == -1/math.E {
		return -1
	}
	// Initial guess: for x → 0⁻, W_{−1}(x) ≈ ln(−x) − ln(−ln(−x));
	// near the branch point, a square-root expansion is better.
	var w float64
	if x > -0.25 {
		l1 := math.Log(-x)
		l2 := math.Log(-l1)
		w = l1 - l2 + l2/l1
	} else {
		// Series around the branch point −1/e.
		p := -math.Sqrt(2 * (1 + math.E*x))
		w = -1 + p - p*p/3
	}
	for i := 0; i < 64; i++ {
		ew := math.Exp(w)
		f := w*ew - x
		if f == 0 {
			break
		}
		// Halley step.
		d := ew*(w+1) - f*(w+2)/(2*(w+1))
		next := w - f/d
		if math.Abs(next-w) < 1e-13*(1+math.Abs(next)) {
			w = next
			break
		}
		w = next
	}
	return w
}

// Perturb returns an anonymized copy of the trace: every position is
// independently displaced by planar Laplace noise; timestamps and the
// user identifier are unchanged.
func (m *Mechanism) Perturb(tr *trace.Trace) (*trace.Trace, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("geoind: %w", err)
	}
	pts := make([]trace.Point, tr.Len())
	for i, p := range tr.Points {
		pts[i] = m.PerturbPoint(p)
	}
	out, err := trace.New(tr.User, pts)
	if err != nil {
		return nil, fmt.Errorf("geoind: build perturbed trace: %w", err)
	}
	return out, nil
}

// PerturbDataset applies Perturb to every trace. Each trace is
// perturbed with an independent RNG derived from (cfg.Seed, user), so
// the output for a given seed does not depend on trace order or on the
// worker count of PerturbDatasetCtx.
func PerturbDataset(d *trace.Dataset, cfg Config) (*trace.Dataset, error) {
	return PerturbDatasetCtx(context.Background(), d, cfg)
}

// PerturbDatasetCtx is PerturbDataset honoring context cancellation and
// fanning the per-trace perturbation across the context's worker budget
// (par.Workers). Per-trace seed derivation keeps the output identical
// to the serial run.
func PerturbDatasetCtx(ctx context.Context, d *trace.Dataset, cfg Config) (*trace.Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	traces := d.Traces()
	out := make([]*trace.Trace, len(traces))
	err := par.Map(ctx, len(traces), func(i int) error {
		m, err := NewForUser(cfg, traces[i].User)
		if err != nil {
			return err
		}
		p, err := m.Perturb(traces[i])
		if err != nil {
			return err
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	ds, err := trace.NewDataset(out)
	if err != nil {
		return nil, fmt.Errorf("geoind: assemble dataset: %w", err)
	}
	return ds, nil
}

// traceSeed derives an independent RNG seed for one trace from the
// dataset seed and the user label, splitmix64-style, so every trace
// gets a decorrelated noise stream.
func traceSeed(seed int64, user string) int64 {
	h := fnv.New64a()
	h.Write([]byte(user))
	return int64(rng.Mix(uint64(seed)*rng.Gamma ^ h.Sum64()))
}

// ExpectedDisplacement returns the mean displacement 2/ε in meters for
// the given privacy parameter — useful for presenting sweep results.
func ExpectedDisplacement(epsilon float64) float64 { return 2 / epsilon }
