package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
	"glr/internal/core"
	"glr/internal/metrics"
)

// Table2Result reproduces Table 2: message delivery under four
// destination-location knowledge regimes (1980 messages, 100 m).
type Table2Result struct {
	Rows     []Table2Row
	Messages int
}

// Table2Row is one measured regime.
type Table2Row struct {
	Copies   int
	Scenario string
	Agg      metrics.Agg
	Paper    PaperTable2Row
}

// Table2LocationKnowledge runs the Table-2 study.
func Table2LocationKnowledge(o Options) (*Table2Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	msgs := o.messages(1980)
	regimes := []struct {
		copies int
		loc    core.LocationKnowledge
		paper  PaperTable2Row
	}{
		{1, core.LocAllKnow, PaperTable2[0]},
		{3, core.LocSourceKnows, PaperTable2[1]},
		{1, core.LocSourceKnows, PaperTable2[2]},
		{3, core.LocNoneKnow, PaperTable2[3]},
	}
	res := &Table2Result{Messages: msgs}
	for _, reg := range regimes {
		cfg := core.DefaultConfig()
		cfg.Copies = reg.copies
		cfg.Location = reg.loc
		s := paperWorld(100, 3800, msgs)
		agg, err := o.runGLR(s, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Copies:   reg.copies,
			Scenario: reg.paper.Scenario,
			Agg:      agg,
			Paper:    reg.paper,
		})
		o.progress("table2: %d copies / %s -> latency %s", reg.copies, reg.paper.Scenario, agg.AvgLatency)
	}
	return res, nil
}

// Render prints measured-vs-paper rows.
func (r *Table2Result) Render() string {
	rows := make([][]string, 0, len(r.Rows)*2)
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d copies", row.Copies), row.Scenario, "measured",
			fmt.Sprintf("%.1f%%", 100*row.Agg.DeliveryRatio.Mean),
			row.Agg.AvgLatency.String(),
			row.Agg.AvgHops.String(),
			row.Agg.AvgPeakStorage.String(),
		})
		rows = append(rows, []string{
			"", "", "paper",
			fmt.Sprintf("%.1f%%", 100*row.Paper.Rate),
			fmt.Sprintf("%.1f±%.1f", row.Paper.Latency, row.Paper.LatencyCI),
			fmt.Sprintf("%.1f±%.1f", row.Paper.Hops, row.Paper.HopsCI),
			fmt.Sprintf("%.1f±%.1f", row.Paper.Storage, row.Paper.StorageCI),
		})
	}
	var sb strings.Builder
	sb.WriteString(asciiplot.Table{
		Title:   fmt.Sprintf("Table 2: location-information availability (%d msgs, 100 m)", r.Messages),
		Headers: []string{"Copies", "Destination location", "Source", "Rate", "Latency (s)", "Hops", "Storage"},
		Rows:    rows,
	}.Render())
	sb.WriteString("Paper ordering: all-know(1cp) < source-knows(3cp) < source-knows(1cp) < none-know(3cp) on latency.\n")
	return sb.String()
}

// LatencyOrderingHolds reports whether the paper's qualitative Table-2
// ordering came out of the measurement (used by tests).
func (r *Table2Result) LatencyOrderingHolds() bool {
	if len(r.Rows) != 4 {
		return false
	}
	l := func(i int) float64 { return r.Rows[i].Agg.AvgLatency.Mean }
	return l(0) <= l(1) && l(1) <= l(2) && l(2) <= l(3)
}
