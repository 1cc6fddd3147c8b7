package glr

// One benchmark per table and figure of the paper's evaluation (§3). Each
// iteration regenerates the artifact end to end at a reduced scale (one
// replication, 5% of the paper's message load) so that a default `go test
// -bench=. -benchmem` pass self-limits to roughly one iteration per
// artifact. Headline metrics are attached via b.ReportMetric so trends
// are visible straight from the bench output; `cmd/glrexp -scale paper`
// runs the full-fidelity versions.

import (
	"context"
	"runtime"
	"testing"

	"glr/internal/experiments"
)

// benchOptions is the reduced-scale configuration used by the artifact
// benchmarks.
func benchOptions() experiments.Options {
	return experiments.Options{
		Runs:       1,
		MsgScale:   0.05,
		TimeScale:  1,
		Confidence: 0.90,
		BaseSeed:   1,
		Parallel:   true,
	}
}

func BenchmarkFig1Connectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1Connectivity(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ConnectedFrac[0], "connected-frac-250m")
		b.ReportMetric(res.ConnectedFrac[1], "connected-frac-100m")
	}
}

func BenchmarkFig3CheckInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3CheckInterval(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Latency[0].AvgLatency.Mean, "lat-0.6s")
		b.ReportMetric(res.Latency[len(res.Latency)-1].AvgLatency.Mean, "lat-1.6s")
	}
}

func BenchmarkTable2LocationKnowledge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2LocationKnowledge(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Agg.AvgLatency.Mean, "lat-allknow")
		b.ReportMetric(res.Rows[3].Agg.AvgLatency.Mean, "lat-noneknow")
	}
}

func BenchmarkFig4Latency50m(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig45Latency(benchOptions(), 50)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.GLR) - 1
		b.ReportMetric(res.GLR[last].AvgLatency.Mean, "glr-lat-s")
		b.ReportMetric(res.Epidemic[last].AvgLatency.Mean, "epidemic-lat-s")
	}
}

func BenchmarkFig5Latency100m(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig45Latency(benchOptions(), 100)
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.GLR) - 1
		b.ReportMetric(res.GLR[last].AvgLatency.Mean, "glr-lat-s")
		b.ReportMetric(res.Epidemic[last].AvgLatency.Mean, "epidemic-lat-s")
	}
}

func BenchmarkFig6LatencyRadius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6LatencyRadius(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GLR[0].AvgLatency.Mean, "glr-lat-50m")
		b.ReportMetric(res.GLR[len(res.GLR)-1].AvgLatency.Mean, "glr-lat-250m")
	}
}

func BenchmarkTable3Custody(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3Custody(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.With.DeliveryRatio.Mean, "ratio-custody")
		b.ReportMetric(res.Without.DeliveryRatio.Mean, "ratio-no-custody")
	}
}

func BenchmarkFig7StorageLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7StorageLimit(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GLR[0].DeliveryRatio.Mean, "glr-ratio-tight")
		b.ReportMetric(res.Epidemic[0].DeliveryRatio.Mean, "epidemic-ratio-tight")
	}
}

func BenchmarkTable4StorageByMessages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4StorageByMessages(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Agg[len(res.Agg)-1].AvgPeakStorage.Mean, "avg-peak-max-load")
	}
}

func BenchmarkTable5StorageByRadius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5StorageByRadius(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Agg[0].AvgPeakStorage.Mean, "avg-peak-250m")
		b.ReportMetric(res.Agg[len(res.Agg)-1].AvgPeakStorage.Mean, "avg-peak-50m")
	}
}

func BenchmarkTable6HopCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table6HopCounts(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.GLR) - 1
		b.ReportMetric(res.GLR[last].AvgHops.Mean, "glr-hops-50m")
		b.ReportMetric(res.Epidemic[last].AvgHops.Mean, "epidemic-hops-50m")
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].Agg.DeliveryRatio.Mean, "ratio-baseline")
		b.ReportMetric(res.Rows[len(res.Rows)-1].Agg.DeliveryRatio.Mean, "ratio-no-custody")
	}
}

// BenchmarkSingleRunGLR measures one end-to-end GLR scenario (the unit of
// every experiment above), for profiling the simulator itself.
func BenchmarkSingleRunGLR(b *testing.B) { benchmarkSingleRun(b, GLR) }

// benchmarkSingleRun runs the paper's Table-1 world with 100 messages
// under protocol p, one seed per iteration.
func benchmarkSingleRun(b *testing.B, p Protocol) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := NewScenario(WithProtocol(p), WithWorkload(PaperWorkload{Messages: 100}),
			WithSimTime(700), WithSeed(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sc.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// runnerScenario is the replication workload of the Runner benchmarks:
// small enough for the CI benchmark gate, large enough that per-run
// work dominates pool overhead.
func runnerScenario(b *testing.B) *Scenario {
	sc, err := NewScenario(
		WithNodes(50),
		WithRange(100),
		WithWorkload(UniformWorkload{Messages: 40, Rate: 1}),
		WithSimTime(120),
	)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// benchmarkRunner measures a 4-seed replication sweep at the given pool
// width.
func benchmarkRunner(b *testing.B, workers int) {
	sc := runnerScenario(b)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum, err := Runner{Workers: workers}.Replicate(ctx, sc, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.DeliveryRatio.Mean, "delivery-ratio")
	}
}

// BenchmarkRunnerSequential is the single-worker baseline of the
// parallel Runner: the gap to BenchmarkRunnerParallel is the multi-core
// speedup the benchgate baseline records.
func BenchmarkRunnerSequential(b *testing.B) { benchmarkRunner(b, 1) }

// BenchmarkRunnerParallel runs the identical sweep on a GOMAXPROCS-wide
// pool (results are identical seed-for-seed; see
// TestRunnerParallelMatchesSequential).
func BenchmarkRunnerParallel(b *testing.B) { benchmarkRunner(b, runtime.GOMAXPROCS(0)) }

// worldStepScenario is the workload of the world-step benchmarks: a
// dense 1000-node field (denser than the paper's strip, so broadcast
// neighborhoods are large) over a short horizon, plus any extra options.
func worldStepScenario(b *testing.B, extra ...Option) *Scenario {
	opts := append([]Option{
		WithNodes(1000),
		WithRange(100),
		WithRegion(3000, 1000),
		WithWorkload(UniformWorkload{Messages: 150, Rate: 20}),
		WithSimTime(10),
	}, extra...)
	sc, err := NewScenario(opts...)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// benchmarkWorldStep runs the scenario once per iteration.
func benchmarkWorldStep(b *testing.B, sc *Scenario) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sc.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DeliveryRatio, "delivery-ratio")
	}
}

// BenchmarkWorldStepSerial steps the 1000-node world under GLR.
func BenchmarkWorldStepSerial(b *testing.B) {
	benchmarkWorldStep(b, worldStepScenario(b))
}

// BenchmarkWorldStepFaults runs the world-step scenario under a
// composite fault plan (churn + link blackouts + GPS noise + Byzantine
// nodes): the per-reception fault predicate and the churn event
// schedule are on the hot path here. Like the other WorldStep
// macro-benchmarks the benchgate baseline gates memory only.
func BenchmarkWorldStepFaults(b *testing.B) {
	benchmarkWorldStep(b, worldStepScenario(b, WithFaults(
		Fault{Kind: FaultChurn, Rate: 0.01, Duration: 2},
		Fault{Kind: FaultLinkBlackout, Rate: 0.2, Period: 5},
		Fault{Kind: FaultGPSNoise, Sigma: 30},
		Fault{Kind: FaultByzantine, Fraction: 0.1},
	)))
}

// BenchmarkSingleRunEpidemic is the epidemic counterpart.
func BenchmarkSingleRunEpidemic(b *testing.B) { benchmarkSingleRun(b, Epidemic) }
