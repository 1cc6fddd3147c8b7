package glr

// Benchmarks of the public surface: one end-to-end run per protocol,
// the Runner's sequential and parallel sweeps, and the world step with
// and without faults. The paper's artifacts are benchmarked in
// internal/experiments.

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkSingleRunGLR measures one end-to-end GLR scenario (the unit of
// every paper experiment), for profiling the simulator itself.
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
