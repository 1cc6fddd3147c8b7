// Package experiments regenerates every table and figure of the paper's
// evaluation section (§3). Each experiment is a function taking Options
// and returning a typed result whose Render method prints the artifact in
// the paper's layout, side by side with the paper's reported values where
// the paper gives them.
//
// All experiments honour the paper's methodology: multiple independent
// replications (10 in the paper) with different seeds, aggregated as mean
// ± Student-t confidence half-width at the 90% level.
package experiments

import (
	"context"
	"fmt"
	"math"

	"glr/internal/core"
	"glr/internal/epidemic"
	"glr/internal/metrics"
	"glr/internal/runner"
	"glr/internal/sim"
	"glr/internal/stats"
)

// confidence is the two-sided confidence level of every aggregate (the
// paper's 90%).
const confidence = 0.90

// Options scales an experiment between quick smoke runs and full paper
// fidelity.
type Options struct {
	// Runs is the number of independent replications (paper: 10).
	Runs int
	// MsgScale multiplies every message count (1.0 = paper scale). The
	// per-node storage limits of Figure 7 scale along with it so the
	// pressure regime is preserved.
	MsgScale float64
	// BaseSeed seeds replication r with BaseSeed + r.
	BaseSeed int64
	// Ctx, when non-nil, cancels replication sweeps: once done, queued
	// runs are abandoned and in-flight ones stop between event batches.
	Ctx context.Context
	// Progress, when non-nil, receives one line per completed scenario.
	Progress func(format string, args ...any)
}

// PaperOptions reproduces the paper's methodology at full scale. A full
// pass over every experiment takes tens of CPU-minutes.
func PaperOptions() Options {
	return Options{Runs: 10, MsgScale: 1, BaseSeed: 1}
}

// QuickOptions is a scaled-down configuration for tests, benchmarks, and
// smoke runs: 3 replications at one-fifth the message load.
func QuickOptions() Options {
	return Options{Runs: 3, MsgScale: 0.2, BaseSeed: 1}
}

// Validate reports a descriptive error for unusable options.
func (o Options) Validate() error {
	switch {
	case o.Runs < 1:
		return fmt.Errorf("experiments: runs %d must be ≥ 1", o.Runs)
	case o.MsgScale <= 0 || o.MsgScale > 1:
		return fmt.Errorf("experiments: message scale %v must be in (0,1]", o.MsgScale)
	}
	return nil
}

// messages scales a paper message count.
func (o Options) messages(paperCount int) int {
	n := int(math.Round(float64(paperCount) * o.MsgScale))
	if n < 1 {
		n = 1
	}
	return n
}

// horizon is a paper simulation time, extended when needed to leave
// room for the traffic (generated at 1 msg/s) plus delivery slack.
func (o Options) horizon(paperTime float64, msgs int) float64 {
	return max(paperTime, float64(msgs)+600)
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// ProtocolKind selects a routing protocol for a scenario run.
type ProtocolKind int

// Protocols under comparison.
const (
	ProtoGLR ProtocolKind = iota
	ProtoEpidemic
)

// String implements fmt.Stringer.
func (p ProtocolKind) String() string {
	if p == ProtoEpidemic {
		return "Epidemic"
	}
	return "GLR"
}

// runSpec describes one scenario execution.
type runSpec struct {
	scenario sim.Scenario
	proto    ProtocolKind
	glrCfg   *core.Config // nil = DefaultConfig
}

// execute builds and runs one world under ctx.
func (rs runSpec) execute(ctx context.Context) (metrics.Report, error) {
	var factory sim.ProtocolFactory
	var err error
	switch rs.proto {
	case ProtoEpidemic:
		factory, err = epidemic.New(epidemic.DefaultConfig())
	default:
		cfg := core.DefaultConfig()
		if rs.glrCfg != nil {
			cfg = *rs.glrCfg
		}
		factory, err = core.New(cfg)
	}
	if err != nil {
		return metrics.Report{}, err
	}
	w, err := sim.NewWorld(rs.scenario, factory)
	if err != nil {
		return metrics.Report{}, err
	}
	return w.RunContext(ctx)
}

// replicate runs spec o.Runs times with seeds BaseSeed..BaseSeed+Runs-1
// through the shared worker pool (internal/runner) and returns the
// per-run reports in seed order.
func (o Options) replicate(spec runSpec) ([]metrics.Report, error) {
	jobs := make([]runner.Job[metrics.Report], o.Runs)
	for r := 0; r < o.Runs; r++ {
		s := spec
		s.scenario.Seed = o.BaseSeed + int64(r)
		jobs[r] = func(ctx context.Context) (metrics.Report, error) {
			return s.execute(ctx)
		}
	}
	return runner.Run(o.Ctx, 0, jobs) // 0 workers: GOMAXPROCS
}

// Agg aggregates replications of one scenario point: mean ± CI for every
// metric the paper reports.
type Agg struct {
	DeliveryRatio  stats.MeanCI
	AvgLatency     stats.MeanCI
	AvgHops        stats.MeanCI
	MaxPeakStorage stats.MeanCI
	AvgPeakStorage stats.MeanCI
}

// aggregate folds replication reports at the configured confidence level.
func (o Options) aggregate(reports []metrics.Report) Agg {
	pull := func(f func(metrics.Report) float64) stats.MeanCI {
		xs := make([]float64, len(reports))
		for i, r := range reports {
			xs[i] = f(r)
		}
		return stats.ConfidenceInterval(xs, confidence)
	}
	return Agg{
		DeliveryRatio:  pull(func(r metrics.Report) float64 { return r.DeliveryRatio }),
		AvgLatency:     pull(func(r metrics.Report) float64 { return r.AvgLatency }),
		AvgHops:        pull(func(r metrics.Report) float64 { return r.AvgHops }),
		MaxPeakStorage: pull(func(r metrics.Report) float64 { return float64(r.MaxPeakStorage) }),
		AvgPeakStorage: pull(func(r metrics.Report) float64 { return r.AvgPeakStorage }),
	}
}

// runPoint is the common "replicate one scenario and aggregate" helper.
func (o Options) runPoint(spec runSpec) (Agg, error) {
	reports, err := o.replicate(spec)
	if err != nil {
		return Agg{}, err
	}
	return o.aggregate(reports), nil
}
