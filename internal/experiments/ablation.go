package experiments

import (
	"fmt"
	"strings"

	"glr"
	"glr/internal/asciiplot"
	"glr/internal/matrix"
	"glr/internal/metrics"
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
	Agg  metrics.Agg
}

// ablation runs every variant at 100 m.
func ablation(o Options) ([]matrix.Section, reader) {
	variants := []struct {
		name string
		cfg  glr.GLRConfig
	}{
		{"baseline (LDTG, face, 3 trees)", glr.GLRConfig{}},
		{"gabriel spanner", glr.GLRConfig{Spanner: "gabriel"}},
		{"raw UDG (no planarization)", glr.GLRConfig{Spanner: "udg"}},
		{"no face routing", glr.GLRConfig{DisableFaceRouting: true}},
		{"no progress hysteresis", glr.GLRConfig{DisableHysteresis: true}},
		{"single copy (MaxDSTD only)", glr.GLRConfig{Copies: 1}},
		{"five copies (extra Mid trees)", glr.GLRConfig{Copies: 5}},
		{"no custody transfer", glr.GLRConfig{DisableCustody: true}},
	}
	var cfgs []glr.GLRConfig
	for _, v := range variants {
		cfgs = append(cfgs, v.cfg)
	}
	res := &AblationResult{Messages: o.messages(1180), Radius: 100}
	return []matrix.Section{o.section("ablate", 3800, res.Messages,
			glr.Matrix{Protocols: glrOnly, Ranges: []float64{res.Radius}, GLR: cfgs})},
		func(secs []matrix.SectionResult) Artifact {
			for i, agg := range aggs(secs[0]) {
				res.Rows = append(res.Rows, AblationRow{Name: variants[i].name, Agg: agg})
			}
			return res
		}
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
