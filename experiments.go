package glr

import (
	"context"
	"fmt"
	"sort"

	"glr/internal/experiments"
)

// Scale selects the fidelity of an experiment run.
type Scale int

// Experiment scales.
const (
	// Quick runs 3 replications at one-fifth the paper's message load —
	// minutes instead of hours, same qualitative shapes.
	Quick Scale = iota
	// Paper runs the full methodology: 10 replications at full load.
	Paper
)

// ExperimentInfo describes one reproducible paper artifact.
type ExperimentInfo struct {
	ID          string
	Title       string
	Description string
}

// experimentRunner executes one artifact and renders it.
type experimentRunner func(o experiments.Options) (string, error)

// render adapts an experiment whose result renders itself.
func render[R interface{ Render() string }](run func(experiments.Options) (R, error)) experimentRunner {
	return func(o experiments.Options) (string, error) {
		r, err := run(o)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

var experimentTable = map[string]struct {
	info ExperimentInfo
	run  experimentRunner
}{
	"fig1": {ExperimentInfo{"fig1", "Figure 1", "Topology connectivity of 50 nodes at 250 m / 100 m in 1000×1000 m"},
		render(experiments.Fig1Connectivity)},
	"fig3": {ExperimentInfo{"fig3", "Figure 3", "GLR latency vs route-check interval (1980 msgs, 100 m)"},
		render(experiments.Fig3CheckInterval)},
	"tab2": {ExperimentInfo{"tab2", "Table 2", "Delivery under four location-knowledge regimes (1980 msgs, 100 m)"},
		render(experiments.Table2LocationKnowledge)},
	"fig4": {ExperimentInfo{"fig4", "Figure 4", "Latency vs messages in transit, GLR vs epidemic (50 m)"},
		render(func(o experiments.Options) (*experiments.LatencySweepResult, error) {
			return experiments.Fig45Latency(o, 50)
		})},
	"fig5": {ExperimentInfo{"fig5", "Figure 5", "Latency vs messages in transit, GLR vs epidemic (100 m)"},
		render(func(o experiments.Options) (*experiments.LatencySweepResult, error) {
			return experiments.Fig45Latency(o, 100)
		})},
	"fig6": {ExperimentInfo{"fig6", "Figure 6", "Latency vs transmission radius (1980 msgs)"},
		render(experiments.Fig6LatencyRadius)},
	"tab3": {ExperimentInfo{"tab3", "Table 3", "Delivery ratio with vs without custody transfer (890 msgs, 50 m)"},
		render(experiments.Table3Custody)},
	"fig7": {ExperimentInfo{"fig7", "Figure 7", "Delivery ratio vs per-node storage limit (1980 msgs, 50 m)"},
		render(experiments.Fig7StorageLimit)},
	"tab4": {ExperimentInfo{"tab4", "Table 4", "GLR peak storage vs message count (50 m)"},
		render(experiments.Table4StorageByMessages)},
	"tab5": {ExperimentInfo{"tab5", "Table 5", "GLR peak storage vs radius (1980 msgs)"},
		render(experiments.Table5StorageByRadius)},
	"tab6": {ExperimentInfo{"tab6", "Table 6", "Hop counts vs radius, GLR vs epidemic (1980 msgs)"},
		render(experiments.Table6HopCounts)},
	"disruption": {ExperimentInfo{"disruption", "Robustness", "Delivery/latency robustness curve under composite disruption (churn + blackouts + GPS noise + Byzantine), GLR vs epidemic"},
		render(experiments.Disruption)},
	"ablate": {ExperimentInfo{"ablate", "Ablation", "GLR design-choice ablation: spanner, face routing, hysteresis, tree count, custody"},
		render(experiments.Ablation)},
}

// Experiments lists the reproducible paper artifacts in a stable order.
func Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, 0, len(experimentTable))
	for _, e := range experimentTable {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunExperiment regenerates one paper artifact at the given scale and
// returns its rendered text (figure and/or paper-vs-measured table).
func RunExperiment(id string, scale Scale) (string, error) {
	return RunExperimentContext(context.Background(), id, scale, nil)
}

// RunExperimentContext is RunExperiment with a progress callback (one
// line per completed scenario point, nil for none) and cancellation:
// once ctx is done, queued replications are abandoned and in-flight
// simulations stop between event batches, returning ctx's error.
func RunExperimentContext(ctx context.Context, id string, scale Scale, progress func(format string, args ...any)) (string, error) {
	e, ok := experimentTable[id]
	if !ok {
		return "", fmt.Errorf("glr: unknown experiment %q (known: %v)", id, experimentIDs())
	}
	o := experiments.QuickOptions()
	if scale == Paper {
		o = experiments.PaperOptions()
	}
	o.Ctx = ctx
	o.Progress = progress
	return e.run(o)
}

func experimentIDs() []string {
	ids := make([]string, 0, len(experimentTable))
	for id := range experimentTable {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
