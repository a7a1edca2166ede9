package mobipriv

import (
	"context"
	"fmt"

	"mobipriv/internal/par"
	"mobipriv/internal/trace"
)

// PerTraceFunc anonymizes ONE trace independently of every other trace
// in the dataset. Returning (nil, nil) withholds (drops) the trace —
// the per-trace counterpart of a StageReport's Dropped list. The input
// trace must not be modified.
//
// The per-trace contract is strict equivalence: applying the function
// to each trace of a dataset must produce exactly the traces that the
// mechanism's batch Apply would publish for that dataset (same points,
// same drops). The built-in per-trace mechanisms hold it by
// construction, since their batch Apply is this function fanned out
// (applyPerTrace). Mechanisms that need cross-trace context — mix-zone
// detection, (k,δ)-aggregation — cannot satisfy it and do not expose
// the capability.
//
// The function is called concurrently, for different traces, from the
// worker pool of Runner.Run or Runner.RunStore, so it must be safe for
// concurrent use. It sees each user at most once per run: a batch
// dataset holds one trace per user, and RunStore assembles each user's
// fragments into one trace before the call.
type PerTraceFunc func(ctx context.Context, tr *Trace) (*Trace, error)

// PerTracer is the optional capability a Mechanism has when each trace
// can be anonymized in isolation: PerTrace returns the function the
// store-native Runner path (Runner.RunStore) fans across its worker
// pool, or nil when this configuration is not trace-independent (e.g. a
// pipeline containing the mix-zone stage). Resolve it with AsPerTrace,
// which sees through the name layer FromSpec adds.
type PerTracer interface {
	Mechanism
	PerTrace() PerTraceFunc
}

// AsPerTrace reports whether the mechanism can run trace-by-trace and
// returns its per-trace function, so specs like "geoi(0.01)" or
// "promesse(epsilon=200)" resolve to their per-trace forms.
func AsPerTrace(m Mechanism) (PerTraceFunc, bool) {
	p, ok := unnamed(m).(PerTracer)
	if !ok {
		return nil, false
	}
	fn := p.PerTrace()
	return fn, fn != nil
}

// PerTraceMechanisms returns the sorted names of registered mechanisms
// whose default spec resolves to a per-trace-capable mechanism — the
// ones eligible for store-native runs.
func PerTraceMechanisms() []string { return registeredWith(AsPerTrace) }

// perTraceMechanism builds a per-trace mechanism: its batch Apply is fn
// fanned out by applyPerTrace and reported as one StageReport named
// stage, its per-trace form is fn itself, and sf (possibly nil) is its
// streaming factory.
func perTraceMechanism(name, stage string, fn PerTraceFunc, sf StreamFactory) Mechanism {
	return mechanismFunc{
		name: name,
		fn: func(ctx context.Context, d *Dataset) (*Result, error) {
			out, dropped, err := applyPerTrace(ctx, fn, d)
			if err != nil {
				return nil, err
			}
			res := &Result{Dataset: out}
			res.AddReport(StageReport{Stage: stage, Dropped: dropped})
			return res, nil
		},
		stream:   sf,
		perTrace: fn,
	}
}

// applyPerTrace is the batch form of a per-trace function: fn runs on
// every trace of d across the context's worker budget (par.Map) and
// the results are collected by index, so the output is the same at any
// worker count. Each nil result is listed in dropped, in input order
// (nil when nothing drops).
func applyPerTrace(ctx context.Context, fn PerTraceFunc, d *Dataset) (*Dataset, []string, error) {
	in := d.Traces()
	res := make([]*Trace, len(in))
	if err := par.Map(ctx, len(in), func(i int) error {
		var err error
		res[i], err = fn(ctx, in[i])
		return err
	}); err != nil {
		return nil, nil, err
	}
	var dropped []string
	kept := res[:0]
	for i, tr := range res {
		if tr == nil {
			dropped = append(dropped, in[i].User)
			continue
		}
		kept = append(kept, tr)
	}
	out, err := trace.NewDataset(kept)
	if err != nil {
		return nil, nil, fmt.Errorf("mobipriv: assemble dataset: %w", err)
	}
	return out, dropped, nil
}
