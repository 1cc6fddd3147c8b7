package glr

import (
	"context"
	"fmt"

	"glr/internal/metrics"
	"glr/internal/runner"
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
	sums, err := r.sweep(ctx, s, runs, s.protocol)
	if err != nil {
		return Summary{}, err
	}
	return sums[0], nil
}

// Compare runs the scenario under both GLR and the epidemic baseline,
// `runs` replications each with identical seeds, across one shared
// worker pool.
func (r Runner) Compare(ctx context.Context, s *Scenario, runs int) (Comparison, error) {
	sums, err := r.sweep(ctx, s, runs, GLR, Epidemic)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{GLR: sums[0], Epidemic: sums[1]}, nil
}

// sweep replicates the scenario under each protocol on one pool and
// summarizes each protocol's replications.
func (r Runner) sweep(ctx context.Context, s *Scenario, runs int, protos ...Protocol) ([]Summary, error) {
	if runs < 1 {
		return nil, fmt.Errorf("glr: replication count %d must be ≥ 1", runs)
	}
	points := make([]runner.Point[metrics.Report], len(protos))
	for i, proto := range protos {
		sp := *s
		sp.protocol = proto
		points[i] = runner.Point[metrics.Report]{Base: s.seed, Runs: runs, Run: func(ctx context.Context, seed int64) (metrics.Report, error) {
			return sp.runSeed(ctx, seed, false)
		}}
	}
	reports, err := runner.Sweep(ctx, r.Workers, points, nil)
	if err != nil {
		return nil, err
	}
	sums := make([]Summary, len(protos))
	for i, proto := range protos {
		if proto == "" {
			proto = GLR
		}
		sums[i] = summarize(proto, s.seed, reports[i])
	}
	return sums, nil
}

// summarize folds one protocol's per-seed reports (seeds base, base+1,
// ...) into a Summary.
func summarize(proto Protocol, base int64, reports []metrics.Report) Summary {
	agg := metrics.Fold(reports)
	sum := Summary{
		Protocol: proto,
		Seeds:    runner.Seeds(base, len(reports)),
		Results:  make([]Result, len(reports)),

		DeliveryRatio:  MeanCI(agg.DeliveryRatio),
		AvgLatency:     MeanCI(agg.AvgLatency),
		AvgHops:        MeanCI(agg.AvgHops),
		AvgPeakStorage: MeanCI(agg.AvgPeakStorage),
		MaxPeakStorage: MeanCI(agg.MaxPeakStorage),
		Duplicates:     MeanCI(agg.Duplicates),
	}
	for i, rep := range reports {
		sum.Results[i] = Result(rep)
	}
	return sum
}
