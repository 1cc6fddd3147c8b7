package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
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

// Table6HopCounts runs the Table-6 sweep.
func Table6HopCounts(o Options) (*Table6Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(1980)
	res := &Table6Result{Messages: msgs}
	for _, radius := range PaperTable6.Radius {
		s := paperWorld(radius, 3800, msgs)
		glr, epi, err := o.compare(s)
		if err != nil {
			return nil, err
		}
		res.Radius = append(res.Radius, radius)
		res.GLR = append(res.GLR, glr)
		res.Epidemic = append(res.Epidemic, epi)
		o.progress("table6: %.0f m -> GLR %s, epidemic %s hops", radius, glr.AvgHops, epi.AvgHops)
	}
	return res, nil
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
