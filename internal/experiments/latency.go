package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
	"glr/internal/metrics"
)

// LatencySweepResult reproduces Figures 4 and 5: GLR vs epidemic delivery
// latency as the number of messages in transit grows, at a fixed radius.
type LatencySweepResult struct {
	Radius   float64
	Messages []int
	GLR      []metrics.Agg
	Epidemic []metrics.Agg
	Figure   string // "Figure 4" (50 m) or "Figure 5" (100 m)
}

// Fig45Latency runs the Figure-4 (radius 50) or Figure-5 (radius 100)
// sweep.
func Fig45Latency(o Options, radius float64) (*LatencySweepResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	figure := "Figure 4"
	if radius >= 100 {
		figure = "Figure 5"
	}
	res := &LatencySweepResult{Radius: radius, Figure: figure}
	for _, paperMsgs := range []int{400, 800, 1180, 1580, 1980} {
		msgs := o.messages(paperMsgs)
		res.Messages = append(res.Messages, msgs)
		s := paperWorld(radius, 3800, msgs)
		glr, epi, err := o.compare(s)
		if err != nil {
			return nil, err
		}
		res.GLR = append(res.GLR, glr)
		res.Epidemic = append(res.Epidemic, epi)
		o.progress("%s: %d msgs -> GLR %s, epidemic %s", figure, msgs, glr.AvgLatency, epi.AvgLatency)
	}
	return res, nil
}

// Render prints the figure.
func (r *LatencySweepResult) Render() string {
	xs := make([]float64, len(r.Messages))
	glr := make([]float64, len(r.GLR))
	epi := make([]float64, len(r.Epidemic))
	for i := range r.Messages {
		xs[i] = float64(r.Messages[i])
		glr[i] = r.GLR[i].AvgLatency.Mean
		epi[i] = r.Epidemic[i].AvgLatency.Mean
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Chart{
		Title:      fmt.Sprintf("%s: latency vs messages in transit (%.0f m radius)", r.Figure, r.Radius),
		XLabel:     "messages in transit",
		YLabel:     "latency (s)",
		ForceYZero: true,
		Series: []asciiplot.Series{
			{Name: "GLR", X: xs, Y: glr},
			{Name: "Epidemic", X: xs, Y: epi},
		},
	}.Render())
	rows := make([][]string, len(xs))
	for i := range xs {
		rows[i] = []string{
			fmt.Sprintf("%d", r.Messages[i]),
			r.GLR[i].AvgLatency.String(),
			r.Epidemic[i].AvgLatency.String(),
			fmt.Sprintf("%.3f", r.GLR[i].DeliveryRatio.Mean),
			fmt.Sprintf("%.3f", r.Epidemic[i].DeliveryRatio.Mean),
		}
	}
	sb.WriteString(asciiplot.Table{
		Headers: []string{"Messages", "GLR lat (s)", "Epidemic lat (s)", "GLR ratio", "Epi ratio"},
		Rows:    rows,
	}.Render())
	sb.WriteString("Paper: epidemic latency grows with messages in transit due to contention;\n" +
		"GLR stays flatter and wins at high load.\n")
	return sb.String()
}

// EpidemicGrowsWithLoad reports whether epidemic latency increased from
// the lightest to the heaviest load point (the paper's headline trend).
func (r *LatencySweepResult) EpidemicGrowsWithLoad() bool {
	if len(r.Epidemic) < 2 {
		return false
	}
	return r.Epidemic[len(r.Epidemic)-1].AvgLatency.Mean > r.Epidemic[0].AvgLatency.Mean
}

// Fig6Result reproduces Figure 6: latency vs transmission radius at 1980
// messages (GLR uses 3 copies at 50/100 m, 1 copy at 150/200/250 m via
// Algorithm 1).
type Fig6Result struct {
	Radius   []float64
	GLR      []metrics.Agg
	Epidemic []metrics.Agg
	Messages int
}

// Fig6LatencyRadius runs the Figure-6 sweep.
func Fig6LatencyRadius(o Options) (*Fig6Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(1980)
	res := &Fig6Result{Messages: msgs}
	for _, radius := range []float64{50, 100, 150, 200, 250} {
		s := paperWorld(radius, 3800, msgs)
		glr, epi, err := o.compare(s)
		if err != nil {
			return nil, err
		}
		res.Radius = append(res.Radius, radius)
		res.GLR = append(res.GLR, glr)
		res.Epidemic = append(res.Epidemic, epi)
		o.progress("fig6: %.0f m -> GLR %s, epidemic %s", radius, glr.AvgLatency, epi.AvgLatency)
	}
	return res, nil
}

// Render prints the figure.
func (r *Fig6Result) Render() string {
	glr := make([]float64, len(r.GLR))
	epi := make([]float64, len(r.Epidemic))
	for i := range r.Radius {
		glr[i] = r.GLR[i].AvgLatency.Mean
		epi[i] = r.Epidemic[i].AvgLatency.Mean
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Chart{
		Title:      fmt.Sprintf("Figure 6: latency vs radius (%d messages)", r.Messages),
		XLabel:     "radius (m)",
		YLabel:     "latency (s)",
		ForceYZero: true,
		Series: []asciiplot.Series{
			{Name: "GLR", X: r.Radius, Y: glr},
			{Name: "Epidemic", X: r.Radius, Y: epi},
		},
	}.Render())
	rows := make([][]string, len(r.Radius))
	for i := range r.Radius {
		rows[i] = []string{
			fmt.Sprintf("%.0f m", r.Radius[i]),
			r.GLR[i].AvgLatency.String(),
			r.Epidemic[i].AvgLatency.String(),
		}
	}
	sb.WriteString(asciiplot.Table{
		Headers: []string{"Radius", "GLR lat (s)", "Epidemic lat (s)"},
		Rows:    rows,
	}.Render())
	sb.WriteString("Paper: both curves fall with radius; GLR stays below epidemic.\n")
	return sb.String()
}

// BothDecreaseWithRadius reports whether both protocols' latencies fall
// from 50 m to 250 m (the paper's Figure-6 trend).
func (r *Fig6Result) BothDecreaseWithRadius() bool {
	n := len(r.Radius)
	if n < 2 {
		return false
	}
	return r.GLR[n-1].AvgLatency.Mean < r.GLR[0].AvgLatency.Mean &&
		r.Epidemic[n-1].AvgLatency.Mean < r.Epidemic[0].AvgLatency.Mean
}
