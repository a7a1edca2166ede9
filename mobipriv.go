// Package mobipriv is the public API of the mobility-data anonymization
// library reproducing Primault, Ben Mokhtar & Brunie, "Privacy-preserving
// Publication of Mobility Data with High Utility" (ICDCS 2015).
//
// The API has five pillars:
//
//   - Mechanism: every anonymization — the paper's pipeline, the
//     smoothing-only PROMESSE variant, and the geo-indistinguishability
//     and Wait4Me baselines — implements one interface
//     (Name/Apply), so CLIs, examples, experiments and benchmarks all
//     consume the same lineup.
//   - Composable stages: the paper's pipeline is Pipeline(stages...)
//     over Stage values — MixZoneSwap (trajectory swapping in natural
//     mix-zones, on the original timing), SpeedSmooth (constant-speed
//     re-publication that hides stops), and Pseudonymize. Result
//     accumulates one StageReport per stage plus the evaluation ground
//     truth (OriginalAt, MajorityOwner).
//   - Registry + parallel runtime: mechanisms register under a name
//     (Register) and resolve from a textual spec (FromSpec), e.g.
//     "promesse(epsilon=200)", "geoi(0.01)", "w4m(k=4,delta=200)";
//     a Runner with WithWorkers(n) fans independent per-trace work
//     across a pool with context cancellation, with output identical
//     to the serial run.
//   - Online streaming: mechanisms that can run over unbounded update
//     streams expose a Streaming capability (AsStreaming,
//     StreamingMechanisms) producing per-user Push/Flush adapters; the
//     sharded engine in internal/stream and the mobiserve service
//     apply them to live traffic with bounded per-user memory,
//     matching the batch path on replay (byte-identical for geoi).
//   - Store-native runs: mechanisms whose per-trace work is
//     independent expose a PerTrace capability (AsPerTrace,
//     PerTraceMechanisms); Runner.RunStore applies them end-to-end
//     over on-disk .mstore stores (internal/store) trace-by-trace, so
//     batch anonymization of datasets larger than RAM runs with
//     memory bounded by the worker count, and Load()s identical to
//     the in-memory path for the same spec and seed.
//
// The determinism contract spans all pillars: randomness always
// derives from (seed, user) — never from trace order, worker count, or
// shard assignment — so batch, parallel, streaming-replay and
// store-native runs of the same spec and seed publish the same points.
// docs/ARCHITECTURE.md maps the layers; docs/MSTORE.md specifies the
// on-disk format; docs/CLI.md documents the six commands.
//
// Quickstart:
//
//	mech, err := mobipriv.FromSpec("pipeline")
//	...
//	runner := mobipriv.NewRunner(mobipriv.WithWorkers(runtime.NumCPU()))
//	res, err := runner.Run(ctx, mech, dataset)
//	...
//	publish(res.Dataset)
//
// Or compose stages explicitly:
//
//	mech := mobipriv.Pipeline(
//		mobipriv.DefaultMixZoneSwap(),
//		mobipriv.SpeedSmooth{Epsilon: 200, Trim: -1},
//		mobipriv.DefaultPseudonymize(),
//	)
//
// The paper's Figure 1 presents smoothing first; Pipeline's doc explains
// why the operational order detects meetings before distorting time.
//
// The sub-packages under internal/ contain the substrates (trajectory
// model, geodesy, synthetic workloads, attacks, baselines, metrics) used
// by the examples, the experiment harness, and the benchmarks.
package mobipriv

import (
	"mobipriv/internal/trace"
)

// Re-exported data model, so that library users need a single import.
type (
	// Dataset is a collection of per-user mobility traces.
	Dataset = trace.Dataset
	// Trace is one user's chronological GPS observations.
	Trace = trace.Trace
	// Point is a single timestamped GPS observation.
	Point = trace.Point
)

// NewDataset builds a validated dataset from traces.
func NewDataset(traces []*Trace) (*Dataset, error) { return trace.NewDataset(traces) }

// NewTrace builds a validated, time-sorted trace.
func NewTrace(user string, pts []Point) (*Trace, error) { return trace.New(user, pts) }
