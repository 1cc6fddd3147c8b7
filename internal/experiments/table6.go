package experiments

import (
	"fmt"
	"strings"

	"glr"
	"glr/internal/asciiplot"
	"glr/internal/matrix"
	"glr/internal/metrics"
)

// Table6Result reproduces Table 6: average hop counts of GLR vs epidemic
// across radii (1980 messages).
type Table6Result struct {
	Radius   []float64
	GLR      []metrics.Agg
	Epidemic []metrics.Agg
	Messages int
}

// table6 compares GLR and epidemic across Table 6's radii.
func table6(o Options) ([]matrix.Section, reader) {
	res := &Table6Result{Radius: PaperTable6.Radius, Messages: o.messages(1980)}
	return []matrix.Section{o.section("tab6", 3800, res.Messages, glr.Matrix{Ranges: res.Radius})},
		func(secs []matrix.SectionResult) Artifact {
			res.GLR, res.Epidemic = pairs(secs[0])
			return res
		}
}

// Render prints measured-vs-paper rows.
func (r *Table6Result) Render() string {
	rows := make([][]string, len(r.Radius))
	for i := range r.Radius {
		rows[i] = []string{
			fmt.Sprintf("%.0f m", r.Radius[i]),
			r.GLR[i].AvgHops.String(),
			fmt.Sprintf("%.2f±%.2f", PaperTable6.GLR[i], PaperTable6.GLRCI[i]),
			r.Epidemic[i].AvgHops.String(),
			fmt.Sprintf("%.2f±%.2f", PaperTable6.Epidemic[i], PaperTable6.EpiCI[i]),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   fmt.Sprintf("Table 6: hop counts vs radius (%d msgs)", r.Messages),
		Headers: []string{"Radius", "GLR hops", "Paper GLR", "Epidemic hops", "Paper epidemic"},
		Rows:    rows,
	}.Render())
	sb.WriteString("Paper: GLR re-forwards whenever relative positions change, so its hop\n" +
		"counts exceed epidemic's and grow as the radius shrinks.\n")
	return sb.String()
}

// GLRHopsExceedEpidemic reports the Table-6 relationship at the sparsest
// radius.
func (r *Table6Result) GLRHopsExceedEpidemic() bool {
	n := len(r.Radius)
	if n == 0 {
		return false
	}
	return r.GLR[n-1].AvgHops.Mean > r.Epidemic[n-1].AvgHops.Mean
}

// GLRHopsGrowAsRadiusShrinks reports the other Table-6 trend (rows ordered
// 250 m → 50 m).
func (r *Table6Result) GLRHopsGrowAsRadiusShrinks() bool {
	n := len(r.GLR)
	if n < 2 {
		return false
	}
	return r.GLR[n-1].AvgHops.Mean > r.GLR[0].AvgHops.Mean
}
