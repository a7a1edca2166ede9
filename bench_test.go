// Repository-level benchmarks: one per experiment (E1..E15, the tables
// and figure-series of the evaluation in internal/experiment) plus
// throughput benchmarks for the pipeline and each baseline. Regenerate
// everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks run at Quick scale so the whole suite stays
// in CI territory; the full-scale tables are regenerated with
// cmd/mobibench.
package mobipriv_test

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"mobipriv"
	"mobipriv/internal/baseline/geoind"
	"mobipriv/internal/baseline/w4m"
	"mobipriv/internal/core"
	"mobipriv/internal/experiment"
	"mobipriv/internal/mixzone"
	"mobipriv/internal/obs"
	otrace "mobipriv/internal/obs/trace"
	"mobipriv/internal/stream"
	"mobipriv/internal/synth"
	"mobipriv/internal/trace"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := e.Run(experiment.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if err := table.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_Figure1(b *testing.B)          { benchExperiment(b, "E1") }
func BenchmarkE2_POIRetrieval(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3_GeoIRecall(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4_Distortion(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5_Coverage(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6_EpsilonSweep(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7_Reidentification(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8_W4MSweep(b *testing.B)         { benchExperiment(b, "E8") }
func BenchmarkE9_ZoneSupply(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10_Throughput(b *testing.B)      { benchExperiment(b, "E10") }
func BenchmarkE11_QuerySuite(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12_Ablations(b *testing.B)       { benchExperiment(b, "E12") }
func BenchmarkE13_SemanticAttack(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14_MMCAttack(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15_ZoneComposition(b *testing.B) { benchExperiment(b, "E15") }

// benchDataset builds a fixed commuter dataset for the throughput
// benchmarks.
func benchDataset(b *testing.B) *trace.Dataset {
	b.Helper()
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 10
	cfg.Sampling = time.Minute
	g, err := synth.Commuters(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return g.Dataset
}

// BenchmarkPipeline measures the full anonymization pipeline and
// reports throughput in input points per second.
func BenchmarkPipeline(b *testing.B) {
	d := benchDataset(b)
	mech := mobipriv.MustFromSpec("pipeline")
	points := float64(d.TotalPoints())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mech.Apply(context.Background(), d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSpeedSmoothing measures step 1 alone.
func BenchmarkSpeedSmoothing(b *testing.B) {
	d := benchDataset(b)
	cfg := core.DefaultConfig()
	points := float64(d.TotalPoints())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SmoothDataset(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkSmoothParallel sweeps the Runner's worker count over the
// speed-smoothing mechanism, so the speedup of the parallel runtime is
// visible in the bench trajectory. The output is byte-identical across
// worker counts (asserted by TestParallelSmoothingDeterministic); only
// the wall clock moves.
func BenchmarkSmoothParallel(b *testing.B) {
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = 48
	cfg.Sampling = 30 * time.Second
	g, err := synth.Commuters(cfg)
	if err != nil {
		b.Fatal(err)
	}
	d := g.Dataset
	mech, err := mobipriv.FromSpec("promesse")
	if err != nil {
		b.Fatal(err)
	}
	points := float64(d.TotalPoints())
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runner := mobipriv.NewRunner(mobipriv.WithWorkers(workers))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(ctx, mech, d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkGeoIParallel sweeps the worker count over the planar
// Laplace baseline, the other embarrassingly parallel transform.
func BenchmarkGeoIParallel(b *testing.B) {
	d := benchDataset(b)
	mech, err := mobipriv.FromSpec("geoi(0.01)")
	if err != nil {
		b.Fatal(err)
	}
	points := float64(d.TotalPoints())
	for _, workers := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runner := mobipriv.NewRunner(mobipriv.WithWorkers(workers))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(ctx, mech, d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// workerSweep returns the deduplicated worker counts 1, 4, NumCPU.
func workerSweep() []int {
	counts := []int{1, 4, runtime.NumCPU()}
	var out []int
	seen := make(map[int]bool)
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// streamBenchUpdates flattens the bench dataset into the time-ordered
// update stream a live ingestion path would see.
func streamBenchUpdates(b *testing.B, users int) []stream.Update {
	b.Helper()
	cfg := synth.DefaultCommuterConfig()
	cfg.Users = users
	cfg.Sampling = 30 * time.Second
	g, err := synth.Commuters(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var out []stream.Update
	for _, tr := range g.Dataset.Traces() {
		for _, p := range tr.Points {
			out = append(out, stream.Update{User: tr.User, Point: p})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// benchStreamEngine replays the update stream through an engine running
// the given factory, reporting sustained points/sec (the serving-path
// throughput metric mobiserve's acceptance bar is measured against).
// When tracer is non-nil each pushed batch goes through the traced
// entry point the way mobiserve drives it: a root span per request
// (nil when the trace is not sampled — the common case this measures).
func benchStreamEngine(b *testing.B, shards int, instrument bool, tracer *otrace.Tracer, factory stream.Factory) {
	updates := streamBenchUpdates(b, 32)
	var consumed atomic.Uint64
	eng, err := stream.NewEngine(stream.Config{
		Shards: shards,
		Sink:   func(batch []stream.Update) { consumed.Add(uint64(len(batch))) },
	}, factory)
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		eng.RegisterMetrics(obs.NewRegistry())
	}
	done := make(chan error, 1)
	go func() { done <- eng.Run(context.Background()) }()
	ctx := context.Background()
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	req := uint64(0)
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(updates); j += batch {
			end := j + batch
			if end > len(updates) {
				end = len(updates)
			}
			if tracer != nil {
				req++
				sp := tracer.Root("bench.push", tracer.DeriveID(req), 0)
				if err := eng.PushTraced(ctx, sp, updates[j:end]...); err != nil {
					b.Fatal(err)
				}
				sp.End()
			} else if err := eng.Push(ctx, updates[j:end]...); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Flush(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(updates))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	if consumed.Load() == 0 {
		b.Fatal("engine produced no output")
	}
}

// BenchmarkStreamEngine sweeps the shard count over the streaming
// engine running the windowed Promesse smoother — the online serving
// analogue of BenchmarkSmoothParallel.
func BenchmarkStreamEngine(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchStreamEngine(b, shards, false, nil, func(user string) stream.Mechanism {
				return stream.Promesse{Epsilon: 100, Window: 500}.New(user)
			})
		})
	}
}

// BenchmarkStreamEngineObs is BenchmarkStreamEngine with the metrics
// registry attached — the delta between the two is the full cost of
// instrumentation on the hot path (push latency histogram, queue
// high-water tracking). The acceptance bar is ≤5% points/s regression.
func BenchmarkStreamEngineObs(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchStreamEngine(b, shards, true, nil, func(user string) stream.Mechanism {
				return stream.Promesse{Epsilon: 100, Window: 500}.New(user)
			})
		})
	}
}

// BenchmarkStreamEngineTrace is BenchmarkStreamEngine with the metrics
// registry attached AND a tracer at sample rate 0 driving every push
// through the traced entry point — the exact configuration a
// production mobiserve runs in when no trace is sampled. The delta
// against BenchmarkStreamEngine is the full unsampled tracing
// overhead; the acceptance bar is ≤5% points/s regression.
func BenchmarkStreamEngineTrace(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tracer := otrace.New(otrace.Config{SampleRate: 0, Seed: 1})
			benchStreamEngine(b, shards, true, tracer, func(user string) stream.Mechanism {
				return stream.Promesse{Epsilon: 100, Window: 500}.New(user)
			})
		})
	}
}

// BenchmarkStreamEngineGeoI measures engine throughput with the
// per-point geoi mechanism (the cheapest adapter, so this is closest to
// the engine's raw points/sec ceiling).
func BenchmarkStreamEngineGeoI(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchStreamEngine(b, shards, false, nil, stream.GeoI{Epsilon: 0.01, Seed: 1}.Factory())
		})
	}
}

// BenchmarkMixZones measures step 2 alone (detection + swap).
func BenchmarkMixZones(b *testing.B) {
	d := benchDataset(b)
	cfg := mixzone.DefaultConfig()
	points := float64(d.TotalPoints())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mixzone.Apply(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkZoneDetection isolates the crossing detector.
func BenchmarkZoneDetection(b *testing.B) {
	d := benchDataset(b)
	cfg := mixzone.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mixzone.DetectZones(d, cfg)
	}
}

// BenchmarkGeoI measures the planar Laplace baseline.
func BenchmarkGeoI(b *testing.B) {
	d := benchDataset(b)
	points := float64(d.TotalPoints())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := geoind.PerturbDataset(d, geoind.Config{Epsilon: 0.01, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkW4M measures the (k,delta)-anonymity baseline.
func BenchmarkW4M(b *testing.B) {
	d := benchDataset(b)
	points := float64(d.TotalPoints())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w4m.Anonymize(d, w4m.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
