package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/sim"
)

// AblationResult measures the contribution of GLR's individual design
// choices on a sparse 100 m scenario: the LDTG spanner vs simpler
// routing graphs, face routing, the progress hysteresis, and the tree
// multiplicity chosen by Algorithm 1.
type AblationResult struct {
	Rows     []AblationRow
	Messages int
	Radius   float64
}

// AblationRow is one variant's outcome.
type AblationRow struct {
	Name string
	Agg  Agg
}

// Ablation runs the design-choice study.
func Ablation(o Options) (*AblationResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(1180)
	const radius = 100.0
	res := &AblationResult{Messages: msgs, Radius: radius}

	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"baseline (LDTG, face, 3 trees)", func(*core.Config) {}},
		{"gabriel spanner", func(c *core.Config) { c.Spanner = core.SpannerGabriel }},
		{"raw UDG (no planarization)", func(c *core.Config) { c.Spanner = core.SpannerUDG }},
		{"no face routing", func(c *core.Config) { c.DisableFaceRouting = true }},
		{"no progress hysteresis", func(c *core.Config) { c.ProgressHysteresis = 0 }},
		{"single copy (MaxDSTD only)", func(c *core.Config) { c.Copies = 1 }},
		{"five copies (extra Mid trees)", func(c *core.Config) { c.Copies = 5 }},
		{"no custody transfer", func(c *core.Config) { c.Custody = false }},
	}
	for _, v := range variants {
		cfg := core.DefaultConfig()
		v.mutate(&cfg)
		s := sim.DefaultScenario(radius)
		s.Traffic = sim.PaperTraffic(msgs)
		s.SimTime = o.horizon(3800, msgs)
		agg, err := o.runPoint(runSpec{scenario: s, proto: ProtoGLR, glrCfg: &cfg})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{Name: v.name, Agg: agg})
		o.progress("ablation: %s -> ratio %.3f latency %s", v.name,
			agg.DeliveryRatio.Mean, agg.AvgLatency)
	}
	return res, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Name,
			fmt.Sprintf("%.1f%%", 100*row.Agg.DeliveryRatio.Mean),
			row.Agg.AvgLatency.String(),
			row.Agg.AvgHops.String(),
			row.Agg.AvgPeakStorage.String(),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title: fmt.Sprintf("GLR design-choice ablation (%d msgs, %.0f m, paper traffic)",
			r.Messages, r.Radius),
		Headers: []string{"Variant", "Delivered", "Latency (s)", "Hops", "Avg peak storage"},
		Rows:    rows,
	}.Render())
	return sb.String()
}
