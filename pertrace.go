package mobipriv

import (
	"context"
)

// PerTraceFunc anonymizes ONE trace independently of every other trace
// in the dataset. Returning (nil, nil) withholds (drops) the trace —
// the per-trace counterpart of a StageReport's Dropped list. The input
// trace must not be modified.
//
// The per-trace contract is strict equivalence: applying the function
// to each trace of a dataset must produce exactly the traces that the
// mechanism's batch Apply would publish for that dataset (same points,
// same drops). Mechanisms that need cross-trace context — mix-zone
// detection, (k,δ)-aggregation — cannot satisfy it and do not expose
// the capability.
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
