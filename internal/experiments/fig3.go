package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/metrics"
)

// Fig3Result reproduces Figure 3: GLR delivery latency as a function of
// the route-check interval (0.6–1.6 s; 1980 messages, 100 m radius).
type Fig3Result struct {
	Intervals []float64
	Latency   []metrics.Agg
	Messages  int
}

// Fig3CheckInterval runs the Figure-3 sweep.
func Fig3CheckInterval(o Options) (*Fig3Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(1980)
	res := &Fig3Result{
		Intervals: []float64{0.6, 0.8, 0.9, 1.0, 1.2, 1.4, 1.6},
		Messages:  msgs,
	}
	for _, iv := range res.Intervals {
		cfg := core.DefaultConfig()
		cfg.CheckInterval = iv
		s := paperWorld(100, 3800, msgs)
		agg, err := o.runGLR(s, cfg)
		if err != nil {
			return nil, err
		}
		res.Latency = append(res.Latency, agg)
		o.progress("fig3: interval %.1f s -> latency %s", iv, agg.AvgLatency)
	}
	return res, nil
}

// Render prints the figure.
func (r *Fig3Result) Render() string {
	var sb strings.Builder
	xs := r.Intervals
	ys := make([]float64, len(r.Latency))
	for i, a := range r.Latency {
		ys[i] = a.AvgLatency.Mean
	}
	sb.WriteString(asciiplot.Chart{
		Title:  fmt.Sprintf("Figure 3: latency vs route-check interval (%d msgs, 100 m)", r.Messages),
		XLabel: "check interval (s)",
		YLabel: "latency (s)",
		Series: []asciiplot.Series{{Name: "GLR", X: xs, Y: ys}},
	}.Render())
	rows := make([][]string, len(xs))
	for i := range xs {
		rows[i] = []string{
			fmt.Sprintf("%.1f", xs[i]),
			r.Latency[i].AvgLatency.String(),
			fmt.Sprintf("%.3f", r.Latency[i].DeliveryRatio.Mean),
		}
	}
	sb.WriteString(asciiplot.Table{
		Headers: []string{"Interval (s)", "Latency (s)", "Delivery ratio"},
		Rows:    rows,
	}.Render())
	sb.WriteString("Paper: latency grows mildly with the interval " +
		"(≈19 s at 0.6 s to ≈24 s at 1.6 s; more frequent checks reduce latency).\n")
	return sb.String()
}
