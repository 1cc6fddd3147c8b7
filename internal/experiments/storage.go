package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/metrics"
)

// Table4Result reproduces Table 4: GLR peak storage vs message count
// (50 m, 3 copies by Algorithm 1).
type Table4Result struct {
	Messages []int
	Agg      []metrics.Agg
}

// Table4StorageByMessages runs the Table-4 sweep.
func Table4StorageByMessages(o Options) (*Table4Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	res := &Table4Result{}
	for _, paperMsgs := range PaperTable4.Messages {
		msgs := o.messages(paperMsgs)
		s := paperWorld(50, 3800, msgs)
		agg, err := o.runGLR(s, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		res.Messages = append(res.Messages, msgs)
		res.Agg = append(res.Agg, agg)
		o.progress("table4: %d msgs -> max peak %s", msgs, agg.MaxPeakStorage)
	}
	return res, nil
}

// Render prints measured-vs-paper rows.
func (r *Table4Result) Render() string {
	rows := make([][]string, len(r.Messages))
	for i := range r.Messages {
		rows[i] = []string{
			fmt.Sprintf("%d", r.Messages[i]),
			r.Agg[i].MaxPeakStorage.String(),
			fmt.Sprintf("%.1f±%.2f", PaperTable4.MaxPeak[i], PaperTable4.MaxCI[i]),
			r.Agg[i].AvgPeakStorage.String(),
			fmt.Sprintf("%.1f±%.2f", PaperTable4.AvgPeak[i], PaperTable4.AvgCI[i]),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   "Table 4: GLR storage requirement vs message count (50 m, 3 copies)",
		Headers: []string{"Messages", "Max peak", "Paper max", "Avg peak", "Paper avg"},
		Rows:    rows,
	}.Render())
	sb.WriteString("Paper: storage grows with the number of messages in transit.\n")
	return sb.String()
}

// StorageGrowsWithMessages reports the Table-4 trend.
func (r *Table4Result) StorageGrowsWithMessages() bool {
	n := len(r.Agg)
	if n < 2 {
		return false
	}
	return r.Agg[n-1].AvgPeakStorage.Mean > r.Agg[0].AvgPeakStorage.Mean
}

// Table5Result reproduces Table 5: GLR peak storage vs radius (1980
// messages; Algorithm 1 picks 3 copies at 50/100 m, 1 copy beyond).
type Table5Result struct {
	Radius   []float64
	Agg      []metrics.Agg
	Messages int
}

// Table5StorageByRadius runs the Table-5 sweep.
func Table5StorageByRadius(o Options) (*Table5Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(1980)
	res := &Table5Result{Messages: msgs}
	for _, radius := range PaperTable5.Radius {
		s := paperWorld(radius, 3800, msgs)
		agg, err := o.runGLR(s, core.DefaultConfig())
		if err != nil {
			return nil, err
		}
		res.Radius = append(res.Radius, radius)
		res.Agg = append(res.Agg, agg)
		o.progress("table5: %.0f m -> max peak %s", radius, agg.MaxPeakStorage)
	}
	return res, nil
}

// Render prints measured-vs-paper rows.
func (r *Table5Result) Render() string {
	rows := make([][]string, len(r.Radius))
	for i := range r.Radius {
		rows[i] = []string{
			fmt.Sprintf("%.0f m", r.Radius[i]),
			r.Agg[i].MaxPeakStorage.String(),
			fmt.Sprintf("%.1f±%.2f", PaperTable5.MaxPeak[i], PaperTable5.MaxCI[i]),
			r.Agg[i].AvgPeakStorage.String(),
			fmt.Sprintf("%.1f±%.2f", PaperTable5.AvgPeak[i], PaperTable5.AvgCI[i]),
		}
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   fmt.Sprintf("Table 5: GLR storage requirement vs radius (%d msgs)", r.Messages),
		Headers: []string{"Radius", "Max peak", "Paper max", "Avg peak", "Paper avg"},
		Rows:    rows,
	}.Render())
	sb.WriteString("Paper: the longer the radius, the smaller the storage requirement.\n")
	return sb.String()
}

// StorageShrinksWithRadius reports the Table-5 trend (rows are ordered
// 250 m down to 50 m, so storage should increase along the rows).
func (r *Table5Result) StorageShrinksWithRadius() bool {
	n := len(r.Agg)
	if n < 2 {
		return false
	}
	return r.Agg[0].AvgPeakStorage.Mean < r.Agg[n-1].AvgPeakStorage.Mean
}
