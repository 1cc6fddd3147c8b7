package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
	"glr/internal/fault"
	"glr/internal/metrics"
)

// DisruptionIntensities are the fault-intensity knob positions the
// robustness sweep evaluates, from fault-free to the full composite.
var DisruptionIntensities = []float64{0, 0.25, 0.5, 0.75, 1.0}

// DisruptionFaults composes the sweep's fault set at intensity x in
// [0,1]: churn, link blackouts, GPS noise, and Byzantine nodes all
// scale together so one knob moves the network from pristine to
// heavily disrupted. Intensity 0 is the empty set — the byte-identical
// fault-free fast path.
func DisruptionFaults(x float64) []fault.Spec {
	if x == 0 {
		return nil
	}
	return []fault.Spec{
		{Kind: fault.Churn, Rate: 0.004 * x, Duration: 30},
		{Kind: fault.LinkBlackout, Rate: 0.3 * x, Period: 20},
		{Kind: fault.GPSNoise, Sigma: 50 * x},
		{Kind: fault.Byzantine, Fraction: 0.2 * x},
	}
}

// DisruptionResult holds the robustness curve: delivery and latency for
// GLR and epidemic at each fault intensity.
type DisruptionResult struct {
	Intensity []float64
	GLR       []metrics.Agg
	Epidemic  []metrics.Agg
	Messages  int
}

// Disruption runs the robustness sweep: both protocols across the
// composite fault ramp at the paper's baseline scenario (100 m range).
// The same seeds replay the same fault schedules for both protocols, so
// the curves differ only in routing behavior.
func Disruption(o Options) (*DisruptionResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(1980)
	res := &DisruptionResult{Messages: msgs}
	for _, x := range DisruptionIntensities {
		s := paperWorld(100, 3800, msgs)
		s.Faults = DisruptionFaults(x)
		glrAgg, epiAgg, err := o.compare(s)
		if err != nil {
			return nil, err
		}
		res.Intensity = append(res.Intensity, x)
		res.GLR = append(res.GLR, glrAgg)
		res.Epidemic = append(res.Epidemic, epiAgg)
		o.progress("disruption: intensity %.2f -> GLR %s, epidemic %s",
			x, glrAgg.DeliveryRatio, epiAgg.DeliveryRatio)
	}
	return res, nil
}

// Render prints the robustness table and the delivery-vs-intensity
// curve.
func (r *DisruptionResult) Render() string {
	rows := make([][]string, len(r.Intensity))
	for i := range r.Intensity {
		rows[i] = []string{
			fmt.Sprintf("%.2f", r.Intensity[i]),
			r.GLR[i].DeliveryRatio.String(),
			r.GLR[i].AvgLatency.String(),
			r.Epidemic[i].DeliveryRatio.String(),
			r.Epidemic[i].AvgLatency.String(),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title: fmt.Sprintf("Robustness: delivery under composite disruption (%d msgs, 100 m)\n"+
			"intensity x scales churn(rate=%.3fx,dur=30) + link-blackout(rate=%.1fx,period=20)\n"+
			"+ gps-noise(sigma=%.0fx) + byzantine(frac=%.1fx)", r.Messages, 0.004, 0.3, 50.0, 0.2),
		Headers: []string{"Intensity", "GLR delivery", "GLR latency (s)", "Epi delivery", "Epi latency (s)"},
		Rows:    rows,
	}.Render())
	glrSeries := asciiplot.Series{Name: "GLR", Marker: '*', X: r.Intensity}
	epiSeries := asciiplot.Series{Name: "Epidemic", Marker: '+', X: r.Intensity}
	for i := range r.Intensity {
		glrSeries.Y = append(glrSeries.Y, r.GLR[i].DeliveryRatio.Mean)
		epiSeries.Y = append(epiSeries.Y, r.Epidemic[i].DeliveryRatio.Mean)
	}
	sb.WriteString(asciiplot.Chart{
		Title:  "mean delivery ratio vs fault intensity",
		XLabel: "intensity",
		YMin:   0, YMax: 1,
		Series: []asciiplot.Series{glrSeries, epiSeries},
	}.Render())
	sb.WriteString("Robustness curve: delivery degrades monotonically with fault intensity;\n")
	sb.WriteString("epidemic's redundant copies buy fault tolerance at higher overhead.\n")
	return sb.String()
}

// DeliveryDegrades reports whether the fault-free point beats the full
// disruption point for both protocols — the sweep's sanity trend.
func (r *DisruptionResult) DeliveryDegrades() bool {
	n := len(r.Intensity)
	if n < 2 {
		return false
	}
	return r.GLR[0].DeliveryRatio.Mean > r.GLR[n-1].DeliveryRatio.Mean &&
		r.Epidemic[0].DeliveryRatio.Mean > r.Epidemic[n-1].DeliveryRatio.Mean
}
