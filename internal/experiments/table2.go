package experiments

import (
	"fmt"
	"strings"

	"glr"
	"glr/internal/asciiplot"
	"glr/internal/matrix"
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

// table2 runs Table 2's rows in the paper's order at 100 m: each row's
// copy count and destination-location knowledge, the location default
// being "source".
func table2(o Options) ([]matrix.Section, reader) {
	regimes := []glr.GLRConfig{{Copies: 1, Location: "all"}, {Copies: 3}, {Copies: 1}, {Copies: 3, Location: "none"}}
	res := &Table2Result{Messages: o.messages(1980)}
	return []matrix.Section{o.section("tab2", 3800, res.Messages,
			glr.Matrix{Protocols: glrOnly, Ranges: []float64{100}, GLR: regimes})},
		func(secs []matrix.SectionResult) Artifact {
			for i, agg := range aggs(secs[0]) {
				res.Rows = append(res.Rows, Table2Row{Copies: regimes[i].Copies, Scenario: PaperTable2[i].Scenario,
					Agg: agg, Paper: PaperTable2[i]})
			}
			return res
		}
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
