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
)

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

// paperWorld is the paper's Table-1 world at the given range carrying
// the first msgs messages of its traffic pattern, run for the paper's
// simulation time paperTime, extended when needed to leave room for the
// traffic (generated at 1 msg/s) plus delivery slack.
func paperWorld(radius, paperTime float64, msgs int) sim.Scenario {
	s := sim.DefaultScenario(radius)
	s.Traffic = sim.PaperTraffic(msgs)
	s.SimTime = max(paperTime, float64(msgs)+600)
	return s
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// point is one scenario under one protocol, replicated o.Runs times:
// GLR under cfg, or the epidemic baseline when cfg is nil.
func (o Options) point(s sim.Scenario, cfg *core.Config) runner.Point[metrics.Report] {
	return runner.Point[metrics.Report]{Base: o.BaseSeed, Runs: o.Runs, Run: func(ctx context.Context, seed int64) (metrics.Report, error) {
		var factory sim.ProtocolFactory
		var err error
		if cfg == nil {
			factory, err = epidemic.New(epidemic.DefaultConfig())
		} else {
			factory, err = core.New(*cfg)
		}
		if err != nil {
			return metrics.Report{}, err
		}
		s := s
		s.Seed = seed
		w, err := sim.NewWorld(s, factory)
		if err != nil {
			return metrics.Report{}, err
		}
		return w.RunContext(ctx)
	}}
}

// sweep runs the points on one pool of GOMAXPROCS workers and folds
// each point's reports.
func (o Options) sweep(points ...runner.Point[metrics.Report]) ([]metrics.Agg, error) {
	reports, err := runner.Sweep(o.Ctx, 0, points, nil)
	if err != nil {
		return nil, err
	}
	aggs := make([]metrics.Agg, len(reports))
	for i, r := range reports {
		aggs[i] = metrics.Fold(r)
	}
	return aggs, nil
}

// runGLR replicates scenario s under GLR with cfg.
func (o Options) runGLR(s sim.Scenario, cfg core.Config) (metrics.Agg, error) {
	aggs, err := o.sweep(o.point(s, &cfg))
	if err != nil {
		return metrics.Agg{}, err
	}
	return aggs[0], nil
}

// compare replicates scenario s under default GLR and under epidemic,
// with identical seeds, on one pool.
func (o Options) compare(s sim.Scenario) (glr, epi metrics.Agg, err error) {
	cfg := core.DefaultConfig()
	aggs, err := o.sweep(o.point(s, &cfg), o.point(s, nil))
	if err != nil {
		return metrics.Agg{}, metrics.Agg{}, err
	}
	return aggs[0], aggs[1], nil
}
