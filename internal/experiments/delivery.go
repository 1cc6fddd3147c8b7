package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/metrics"
)

// Table3Result reproduces Table 3: delivery ratio with and without custody
// transfer (890 messages, 50 m, 1200 s).
type Table3Result struct {
	Without  metrics.Agg
	With     metrics.Agg
	Messages int
}

// Table3Custody runs the Table-3 comparison.
func Table3Custody(o Options) (*Table3Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(890)
	res := &Table3Result{Messages: msgs}
	for _, custody := range []bool{false, true} {
		cfg := core.DefaultConfig()
		cfg.Custody = custody
		s := paperWorld(50, 1200, msgs)
		agg, err := o.runGLR(s, cfg)
		if err != nil {
			return nil, err
		}
		if custody {
			res.With = agg
		} else {
			res.Without = agg
		}
		o.progress("table3: custody=%v -> ratio %.3f", custody, agg.DeliveryRatio.Mean)
	}
	return res, nil
}

// Render prints measured-vs-paper rows.
func (r *Table3Result) Render() string {
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   fmt.Sprintf("Table 3: delivery ratio with/without custody transfer (%d msgs, 50 m, 1200 s)", r.Messages),
		Headers: []string{"Scenario", "Measured", "Paper"},
		Rows: [][]string{
			{"without custody transfer",
				fmt.Sprintf("%.1f%%±%.1f%%", 100*r.Without.DeliveryRatio.Mean, 100*r.Without.DeliveryRatio.HalfWidth),
				fmt.Sprintf("%.1f%%±%.0f%%", 100*PaperTable3.WithoutCustody, 100*PaperTable3.WithoutCI)},
			{"with custody transfer",
				fmt.Sprintf("%.1f%%±%.1f%%", 100*r.With.DeliveryRatio.Mean, 100*r.With.DeliveryRatio.HalfWidth),
				fmt.Sprintf("%.1f%%±%.0f%%", 100*PaperTable3.WithCustody, 100*PaperTable3.WithCI)},
		},
	}.Render())
	sb.WriteString("Paper: custody transfer lifts the delivery ratio (84.7% -> 97.9%).\n")
	return sb.String()
}

// CustodyHelps reports whether custody raised the delivery ratio.
func (r *Table3Result) CustodyHelps() bool {
	return r.With.DeliveryRatio.Mean > r.Without.DeliveryRatio.Mean
}

// Fig7Result reproduces Figure 7: delivery ratio vs per-node storage limit
// for GLR and epidemic (1980 messages, 50 m). Limits scale with MsgScale
// so the pressure regime matches the paper's.
type Fig7Result struct {
	Limits   []int
	GLR      []metrics.Agg
	Epidemic []metrics.Agg
	Messages int
}

// Fig7StorageLimit runs the Figure-7 sweep.
func Fig7StorageLimit(o Options) (*Fig7Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(1980)
	res := &Fig7Result{Messages: msgs}
	for _, paperLimit := range []int{25, 50, 100, 150, 200} {
		limit := o.messages(paperLimit) // same scaling as message counts
		s := paperWorld(50, 3800, msgs)
		s.StorageLimit = limit
		glr, epi, err := o.compare(s)
		if err != nil {
			return nil, err
		}
		res.Limits = append(res.Limits, limit)
		res.GLR = append(res.GLR, glr)
		res.Epidemic = append(res.Epidemic, epi)
		o.progress("fig7: limit %d -> GLR %.3f, epidemic %.3f", limit,
			glr.DeliveryRatio.Mean, epi.DeliveryRatio.Mean)
	}
	return res, nil
}

// Render prints the figure.
func (r *Fig7Result) Render() string {
	xs := make([]float64, len(r.Limits))
	glr := make([]float64, len(r.GLR))
	epi := make([]float64, len(r.Epidemic))
	for i := range r.Limits {
		xs[i] = float64(r.Limits[i])
		glr[i] = r.GLR[i].DeliveryRatio.Mean
		epi[i] = r.Epidemic[i].DeliveryRatio.Mean
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Chart{
		Title:  fmt.Sprintf("Figure 7: delivery ratio vs storage limit (%d msgs, 50 m)", r.Messages),
		XLabel: "storage limit (messages/node)",
		YLabel: "delivery ratio",
		YMin:   0, YMax: 1,
		Series: []asciiplot.Series{
			{Name: "GLR", X: xs, Y: glr},
			{Name: "Epidemic", X: xs, Y: epi},
		},
	}.Render())
	rows := make([][]string, len(xs))
	for i := range xs {
		rows[i] = []string{
			fmt.Sprintf("%d", r.Limits[i]),
			fmt.Sprintf("%.3f", glr[i]),
			fmt.Sprintf("%.3f", epi[i]),
		}
	}
	sb.WriteString(asciiplot.Table{
		Headers: []string{"Limit (msgs/node)", "GLR ratio", "Epidemic ratio"},
		Rows:    rows,
	}.Render())
	sb.WriteString("Paper: GLR holds ~100% down to small limits; epidemic's ratio collapses\n" +
		"once storage drops below the number of messages in transit.\n")
	return sb.String()
}

// GLRBeatsEpidemicUnderPressure reports whether GLR's delivery ratio
// exceeds epidemic's at the tightest storage limit.
func (r *Fig7Result) GLRBeatsEpidemicUnderPressure() bool {
	if len(r.GLR) == 0 {
		return false
	}
	return r.GLR[0].DeliveryRatio.Mean > r.Epidemic[0].DeliveryRatio.Mean
}
