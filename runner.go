package glr

import (
	"context"
	"fmt"

	"glr/internal/metrics"
	"glr/internal/runner"
	"glr/internal/stats"
)

// Runner executes multi-seed replications of a Scenario — and protocol
// comparisons — across a worker pool, aggregating results as mean ±
// Student-t confidence half-width (the paper's methodology). The zero
// value runs on all CPUs at 90% confidence.
//
// Each replication steps its world on one goroutine; Workers is how a
// sweep uses several cores.
//
// Replication r runs with seed base+r, where base is the scenario's
// WithSeed value — so any single replication can be reproduced with
// Scenario.Run after WithSeed(base+r). Results are independent of the
// worker count and of scheduling order: a parallel sweep returns
// exactly what a sequential one does, seed for seed.
//
// Runner does not attach the scenario's observers: replications run
// concurrently, and observer callbacks are defined to fire on a single
// run's simulation goroutine. Observe a single Scenario.Run instead.
type Runner struct {
	// Workers bounds concurrent replications (0 = GOMAXPROCS, 1 =
	// sequential).
	Workers int
	// Confidence is the two-sided confidence level for the aggregate
	// intervals (0 = the paper's 0.90).
	Confidence float64
}

// MeanCI is a sample mean with its confidence half-width over N
// replications, in the paper's "value ± halfwidth" presentation.
type MeanCI struct {
	Mean      float64
	HalfWidth float64
	N         int
}

// String renders the interval in the paper's table style.
func (m MeanCI) String() string { return fmt.Sprintf("%.2f±%.2f", m.Mean, m.HalfWidth) }

// Summary aggregates the replications of one scenario under one
// protocol: the per-seed Results plus mean ± CI for every headline
// metric.
type Summary struct {
	Protocol Protocol
	// Seeds and Results are aligned: Results[i] ran with Seeds[i].
	Seeds   []int64
	Results []Result

	DeliveryRatio  MeanCI
	AvgLatency     MeanCI // seconds
	AvgHops        MeanCI
	AvgPeakStorage MeanCI
	MaxPeakStorage MeanCI
	Duplicates     MeanCI
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("%s over %d seeds: delivery %.2f±%.2f, latency %.1f±%.1fs, hops %v, peak storage %v",
		s.Protocol, len(s.Results),
		s.DeliveryRatio.Mean, s.DeliveryRatio.HalfWidth,
		s.AvgLatency.Mean, s.AvgLatency.HalfWidth, s.AvgHops, s.AvgPeakStorage)
}

// Comparison pairs GLR and epidemic summaries over identical workloads.
type Comparison struct {
	GLR      Summary
	Epidemic Summary
}

// Replicate runs the scenario `runs` times with seeds base..base+runs-1
// across the worker pool and aggregates the results. ctx cancels queued
// and in-flight replications.
func (r Runner) Replicate(ctx context.Context, s *Scenario, runs int) (Summary, error) {
	if err := r.check(runs); err != nil {
		return Summary{}, err
	}
	reports, err := r.replicate(ctx, s, s.protocol, runs)
	if err != nil {
		return Summary{}, err
	}
	return r.summarize(s, s.protocol, reports, runs), nil
}

// Compare runs the scenario under both GLR and the epidemic baseline,
// `runs` replications each with identical seeds, across one shared
// worker pool.
func (r Runner) Compare(ctx context.Context, s *Scenario, runs int) (Comparison, error) {
	if err := r.check(runs); err != nil {
		return Comparison{}, err
	}
	jobs := make([]runner.Job[metrics.Report], 0, 2*runs)
	for _, proto := range []Protocol{GLR, Epidemic} {
		proto := proto
		for i := 0; i < runs; i++ {
			seed := s.seed + int64(i)
			jobs = append(jobs, func(ctx context.Context) (metrics.Report, error) {
				return s.withProtocol(proto).runSeed(ctx, seed, false)
			})
		}
	}
	reports, err := runner.Run(ctx, r.Workers, jobs)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		GLR:      r.summarize(s, GLR, reports[:runs], runs),
		Epidemic: r.summarize(s, Epidemic, reports[runs:], runs),
	}, nil
}

// replicate fans one protocol's replications over the pool.
func (r Runner) replicate(ctx context.Context, s *Scenario, proto Protocol, runs int) ([]metrics.Report, error) {
	jobs := make([]runner.Job[metrics.Report], runs)
	for i := 0; i < runs; i++ {
		seed := s.seed + int64(i)
		jobs[i] = func(ctx context.Context) (metrics.Report, error) {
			return s.withProtocol(proto).runSeed(ctx, seed, false)
		}
	}
	return runner.Run(ctx, r.Workers, jobs)
}

// withProtocol returns a shallow copy of the scenario pinned to proto.
func (s *Scenario) withProtocol(p Protocol) *Scenario {
	cp := *s
	cp.protocol = p
	return &cp
}

// summarize aggregates per-seed reports at the runner's confidence.
func (r Runner) summarize(s *Scenario, proto Protocol, reports []metrics.Report, runs int) Summary {
	conf := r.Confidence
	if conf == 0 {
		conf = 0.90
	}
	sum := Summary{
		Protocol: proto,
		Seeds:    make([]int64, runs),
		Results:  make([]Result, runs),
	}
	if sum.Protocol == "" {
		sum.Protocol = GLR
	}
	for i, rep := range reports {
		sum.Seeds[i] = s.seed + int64(i)
		sum.Results[i] = resultFromReport(rep)
	}
	pull := func(f func(Result) float64) MeanCI {
		xs := make([]float64, len(sum.Results))
		for i, res := range sum.Results {
			xs[i] = f(res)
		}
		ci := stats.ConfidenceInterval(xs, conf)
		return MeanCI{Mean: ci.Mean, HalfWidth: ci.HalfWidth, N: ci.N}
	}
	sum.DeliveryRatio = pull(func(r Result) float64 { return r.DeliveryRatio })
	sum.AvgLatency = pull(func(r Result) float64 { return r.AvgLatency })
	sum.AvgHops = pull(func(r Result) float64 { return r.AvgHops })
	sum.AvgPeakStorage = pull(func(r Result) float64 { return r.AvgPeakStorage })
	sum.MaxPeakStorage = pull(func(r Result) float64 { return float64(r.MaxPeakStorage) })
	sum.Duplicates = pull(func(r Result) float64 { return float64(r.Duplicates) })
	return sum
}

// check validates the runner's knobs and the replication count.
// Confidence is a fraction in (0,1); 0 means the default 0.90 — a
// percentage like 95 would otherwise silently produce ±Inf intervals.
func (r Runner) check(runs int) error {
	if runs < 1 {
		return fmt.Errorf("glr: replication count %d must be ≥ 1", runs)
	}
	if r.Confidence < 0 || r.Confidence >= 1 {
		return fmt.Errorf("glr: confidence %v must be a fraction in [0,1) (0 = default 0.90)", r.Confidence)
	}
	return nil
}
