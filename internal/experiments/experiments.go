// Package experiments regenerates every table and figure of the paper's
// evaluation section (§3). Each experiment but Figure 1 is declared as
// sections of the Table-1 world (glr.Matrix sweeps), which the matrix
// driver (internal/matrix) runs against its content-keyed result cache;
// the experiment then reads each cell's aggregate into a typed result
// whose Render method prints the artifact in the paper's layout, side by
// side with the paper's reported values where the paper gives them.
//
// All experiments honour the paper's methodology: multiple independent
// replications (10 in the paper) with different seeds, aggregated as mean
// ± Student-t confidence half-width at the 90% level.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"glr"
	"glr/internal/matrix"
	"glr/internal/metrics"
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

// Validate reports a descriptive error for unusable options. A base
// seed of 0 is refused because a glr.Matrix reads it as "unset" and
// would run from seed 1.
func (o Options) Validate() error {
	switch {
	case o.Runs < 1:
		return fmt.Errorf("experiments: runs %d must be ≥ 1", o.Runs)
	case o.MsgScale <= 0 || o.MsgScale > 1:
		return fmt.Errorf("experiments: message scale %v must be in (0,1]", o.MsgScale)
	case o.BaseSeed == 0:
		return fmt.Errorf("experiments: base seed must not be 0")
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

// horizon is the paper's simulation time paperTime, extended when needed
// to leave room for msgs messages of traffic (generated at 1 msg/s) plus
// delivery slack.
func horizon(paperTime float64, msgs int) float64 {
	return max(paperTime, float64(msgs)+600)
}

// glrOnly selects the GLR protocol alone; sections that leave Protocols
// unset compare GLR and epidemic, in that order.
var glrOnly = []glr.Protocol{glr.GLR}

// section declares one sweep of the paper's Table-1 world (50 nodes,
// random waypoint, the paper's traffic) carrying the first msgs messages
// of the traffic pattern for horizon(paperTime, msgs) seconds, replicated
// o.Runs times from o.BaseSeed. m sets the swept axes.
func (o Options) section(name string, paperTime float64, msgs int, m glr.Matrix) matrix.Section {
	m.Messages = msgs
	m.SimTime = horizon(paperTime, msgs)
	m.Seeds = o.Runs
	m.BaseSeed = o.BaseSeed
	return matrix.Section{Name: name, Matrix: m}
}

// aggs returns a section's cell aggregates in cell order.
func aggs(sec matrix.SectionResult) []metrics.Agg {
	out := make([]metrics.Agg, len(sec.Cells))
	for i, c := range sec.Cells {
		out[i] = c.Agg
	}
	return out
}

// pairs splits a GLR-vs-epidemic section's aggregates, whose cells
// alternate GLR then epidemic at each coordinate.
func pairs(sec matrix.SectionResult) (glrAggs, epiAggs []metrics.Agg) {
	for i := 0; i+1 < len(sec.Cells); i += 2 {
		glrAggs = append(glrAggs, sec.Cells[i].Agg)
		epiAggs = append(epiAggs, sec.Cells[i+1].Agg)
	}
	return glrAggs, epiAggs
}

// Artifact is an experiment's typed result; Render prints it.
type Artifact interface {
	Render() string
}

// reader builds an experiment's result from the results of the sections
// it declared, in declaration order.
type reader func([]matrix.SectionResult) Artifact

// Experiment is one reproducible paper artifact: declare returns the
// sections it sweeps and the reader of their results.
type Experiment struct {
	ID          string
	Title       string
	Description string

	declare func(Options) ([]matrix.Section, reader)
}

// registry lists the experiments in ID order.
var registry = []Experiment{
	{"ablate", "Ablation", "GLR design-choice ablation: spanner, face routing, hysteresis, tree count, custody", ablation},
	{"disruption", "Robustness", "Delivery/latency robustness curve under composite disruption (churn + blackouts + GPS noise + Byzantine), GLR vs epidemic", disruption},
	{"fig1", "Figure 1", "Topology connectivity of 50 nodes at 250 m / 100 m in 1000×1000 m",
		func(o Options) ([]matrix.Section, reader) {
			return nil, func([]matrix.SectionResult) Artifact { return fig1(o) }
		}},
	{"fig3", "Figure 3", "GLR latency vs route-check interval (1980 msgs, 100 m)", fig3},
	{"fig4", "Figure 4", "Latency vs messages in transit, GLR vs epidemic (50 m)", latency("Figure 4", 50)},
	{"fig5", "Figure 5", "Latency vs messages in transit, GLR vs epidemic (100 m)", latency("Figure 5", 100)},
	{"fig6", "Figure 6", "Latency vs transmission radius (1980 msgs)", fig6},
	{"fig7", "Figure 7", "Delivery ratio vs per-node storage limit (1980 msgs, 50 m)", fig7},
	{"tab2", "Table 2", "Delivery under four location-knowledge regimes (1980 msgs, 100 m)", table2},
	{"tab3", "Table 3", "Delivery ratio with vs without custody transfer (890 msgs, 50 m)", table3},
	{"tab4", "Table 4", "GLR peak storage vs message count (50 m)", table4},
	{"tab5", "Table 5", "GLR peak storage vs radius (1980 msgs)", table5},
	{"tab6", "Table 6", "Hop counts vs radius, GLR vs epidemic (1980 msgs)", table6},
}

// All lists the reproducible paper artifacts in ID order.
func All() []Experiment {
	return append([]Experiment(nil), registry...)
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, error) {
	ids := make([]string, len(registry))
	for i, e := range registry {
		if e.ID == id {
			return e, nil
		}
		ids[i] = e.ID
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(ids, ", "))
}

// Run executes every section of the experiments in one pass of d, so
// cells the experiments share compute once and all replications share
// one worker pool, then reads each experiment's result. The atlas
// reports how many cells were computed and how many came from d's
// cache. Once ctx is done, queued replications are abandoned and
// in-flight simulations stop between event batches.
func Run(ctx context.Context, d *matrix.Driver, o Options, exps ...Experiment) ([]Artifact, *matrix.Atlas, error) {
	if err := o.Validate(); err != nil {
		return nil, nil, err
	}
	var secs []matrix.Section
	reads := make([]reader, len(exps))
	ends := make([]int, len(exps))
	for i, e := range exps {
		s, read := e.declare(o)
		secs = append(secs, s...)
		reads[i], ends[i] = read, len(secs)
	}
	atlas, err := d.Run(ctx, secs)
	if err != nil {
		return nil, nil, err
	}
	arts := make([]Artifact, len(exps))
	start := 0
	for i, read := range reads {
		arts[i] = read(atlas.Sections[start:ends[i]])
		start = ends[i]
	}
	return arts, atlas, nil
}
