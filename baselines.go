package mobipriv

import (
	"context"
	"errors"
	"fmt"

	"mobipriv/internal/baseline/geoind"
	"mobipriv/internal/baseline/w4m"
	"mobipriv/internal/core"
)

// The standard lineup compared throughout the evaluation, registered
// here so every CLI, example, experiment, and benchmark resolves the
// same mechanisms by spec. Positional parameters are consumed in the
// order listed:
//
//	raw                                  — identity publication (strawman)
//	promesse(epsilon, trim, window)      — speed smoothing only
//	pipeline(epsilon, zone-radius, ...)  — the paper's full pipeline
//	geoi(epsilon, seed)                  — planar Laplace (Andrés et al.)
//	w4m(k, delta, grid, max-radius)      — (k,δ)-anonymity (Abul et al.)
func init() {
	Register("raw", func(p *Params) (Mechanism, error) {
		return Raw(), nil
	})
	Register("promesse", func(p *Params) (Mechanism, error) {
		eps := p.Float("epsilon", 100)
		trim := p.Float("trim", -1)
		window := p.Float("window", 0) // streaming smoothing horizon; 0 = 10*epsilon
		if eps <= 0 {
			return nil, errors.New("epsilon must be positive")
		}
		return promesse(eps, trim, window), nil
	})
	Register("pipeline", func(p *Params) (Mechanism, error) {
		zones, smooth, pseudo := DefaultMixZoneSwap(), DefaultSpeedSmooth(), DefaultPseudonymize()
		smooth.Epsilon = p.Float("epsilon", smooth.Epsilon)
		zones.Radius = p.Float("zone-radius", zones.Radius)
		zones.Window = p.Duration("zone-window", zones.Window)
		zones.Cooldown = p.Duration("zone-cooldown", zones.Cooldown)
		smooth.Trim = p.Float("trim", smooth.Trim)
		zones.Seed = p.Int64("seed", zones.Seed)
		pseudo.Seed = zones.Seed
		zones.DisableSwap = p.Bool("no-swap", false)
		zones.DisableSuppress = p.Bool("no-suppress", false)
		noSmooth := p.Bool("no-smooth", false)
		noZones := p.Bool("no-zones", false)
		pseudo.Prefix = p.String("prefix", pseudo.Prefix)
		// Stages validate when they run; the spec is outside input, so
		// reject a bad one at resolution time instead.
		var stages []Stage
		if !noZones {
			if err := zones.validate(); err != nil {
				return nil, err
			}
			stages = append(stages, zones)
		}
		if !noSmooth {
			if smooth.Epsilon <= 0 {
				return nil, errors.New("epsilon must be positive")
			}
			stages = append(stages, smooth)
		}
		return Pipeline(append(stages, pseudo)...), nil
	})
	Register("geoi", func(p *Params) (Mechanism, error) {
		eps := p.Float("epsilon", 0.01)
		seed := p.Int64("seed", 1)
		if eps <= 0 {
			return nil, errors.New("epsilon must be positive")
		}
		return GeoI(eps, seed), nil
	})
	Register("w4m", func(p *Params) (Mechanism, error) {
		cfg := w4m.DefaultConfig()
		cfg.K = p.Int("k", cfg.K)
		cfg.Delta = p.Float("delta", cfg.Delta)
		cfg.Grid = p.Duration("grid", cfg.Grid)
		cfg.MaxRadius = p.Float("max-radius", cfg.MaxRadius)
		return w4mMechanism{cfg: cfg}, nil
	})
}

// Raw returns the identity mechanism: the dataset is published as-is
// (the strawman every evaluation compares against). The input dataset
// is returned without copying. It is streaming-capable (AsStreaming):
// the online adapter republishes every update immediately. It is also
// per-trace-capable (AsPerTrace) for store-native runs.
func Raw() Mechanism {
	return mechanismFunc{
		name: "raw",
		fn: func(ctx context.Context, d *Dataset) (*Result, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res := &Result{Dataset: d}
			res.AddReport(StageReport{Stage: "raw"})
			return res, nil
		},
		stream:   streamRaw(),
		perTrace: perTraceRaw(),
	}
}

// Promesse returns the smoothing-only mechanism (the paper's PROMESSE
// with default end-trimming): constant-speed re-publication at the
// given inter-point spacing in meters. Traces too short to anonymize
// are dropped and reported. It is streaming-capable (AsStreaming): the
// online adapter smooths over a sliding distance window instead of the
// whole trace (see internal/stream).
func Promesse(epsilon float64) Mechanism { return promesse(epsilon, -1, 0) }

func promesse(epsilon, trim, window float64) Mechanism {
	return mechanismFunc{
		name: fmt.Sprintf("promesse(epsilon=%g)", epsilon),
		fn: func(ctx context.Context, d *Dataset) (*Result, error) {
			out, rep, err := core.SmoothDatasetCtx(ctx, d, core.Config{Epsilon: epsilon, Trim: trim})
			if err != nil {
				return nil, err
			}
			res := &Result{Dataset: out}
			res.AddReport(StageReport{Stage: "smooth", Dropped: rep.Dropped})
			return res, nil
		},
		stream:   streamPromesse(epsilon, window),
		perTrace: perTracePromesse(epsilon, trim),
	}
}

// GeoI returns the geo-indistinguishability baseline (planar Laplace
// noise, Andrés et al. CCS'13) at the given privacy parameter in
// 1/meters. Each trace is perturbed with an independent RNG derived
// from (seed, user), so output is deterministic for a seed regardless
// of the Runner's worker count. It is streaming-capable (AsStreaming)
// with byte-identical output: the online adapter derives the same
// per-user noise streams.
func GeoI(epsilon float64, seed int64) Mechanism {
	return mechanismFunc{
		name: fmt.Sprintf("geoi(epsilon=%g)", epsilon),
		fn: func(ctx context.Context, d *Dataset) (*Result, error) {
			out, err := geoind.PerturbDatasetCtx(ctx, d, geoind.Config{Epsilon: epsilon, Seed: seed})
			if err != nil {
				return nil, err
			}
			res := &Result{Dataset: out}
			res.AddReport(StageReport{Stage: "geoi"})
			return res, nil
		},
		stream:   streamGeoI(epsilon, seed),
		perTrace: perTraceGeoI(epsilon, seed),
	}
}

// W4M returns the Wait4Me (k,δ)-anonymity baseline (Abul, Bonchi &
// Nanni 2010) with anonymity set size k and tube diameter delta in
// meters.
func W4M(k int, delta float64) Mechanism {
	cfg := w4m.DefaultConfig()
	cfg.K, cfg.Delta = k, delta
	return w4mMechanism{cfg: cfg}
}

type w4mMechanism struct {
	cfg w4m.Config
}

func (m w4mMechanism) Name() string {
	return fmt.Sprintf("w4m(k=%d,delta=%g)", m.cfg.K, m.cfg.Delta)
}

func (m w4mMechanism) Apply(ctx context.Context, d *Dataset) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w4mRes, err := w4m.Anonymize(d, m.cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Dataset: w4mRes.Dataset}
	res.AddReport(StageReport{Stage: "w4m", Dropped: w4mRes.Suppressed})
	return res, nil
}

// The built-in per-trace functions mirror exactly what the batch Apply
// does to each individual trace, which is what makes store-native runs
// (Runner.RunStore) Load-identical to the in-memory path. w4m stays
// batch-only — (k,δ)-aggregation needs every trace at once — and so
// does any pipeline containing the mix-zone stage; a zone-free,
// prefix-free pipeline composes its stages' per-trace forms instead
// (see pipelineMechanism.PerTrace).

func perTraceRaw() PerTraceFunc {
	return func(ctx context.Context, tr *Trace) (*Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return tr, nil
	}
}

func perTracePromesse(epsilon, trim float64) PerTraceFunc {
	cfg := core.Config{Epsilon: epsilon, Trim: trim}
	return func(ctx context.Context, tr *Trace) (*Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out, err := core.Smooth(tr, cfg)
		if err != nil {
			// The same drops SmoothDatasetCtx reports as Dropped.
			if errors.Is(err, core.ErrTraceTooShort) || errors.Is(err, core.ErrZeroDuration) {
				return nil, nil
			}
			return nil, err
		}
		return out, nil
	}
}

func perTraceGeoI(epsilon float64, seed int64) PerTraceFunc {
	cfg := geoind.Config{Epsilon: epsilon, Seed: seed}
	return func(ctx context.Context, tr *Trace) (*Trace, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Same per-(seed, user) RNG derivation as PerturbDatasetCtx, so
		// the noise stream is identical to the batch run.
		m, err := geoind.NewForUser(cfg, tr.User)
		if err != nil {
			return nil, err
		}
		return m.Perturb(tr)
	}
}
