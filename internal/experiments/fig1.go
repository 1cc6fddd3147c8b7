package experiments

import (
	"fmt"
	"strings"

	"glr/internal/asciiplot"
	"glr/internal/geom"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/rng"
	"glr/internal/stats"
)

// Fig1Result reproduces Figure 1: the connectivity structure of 50
// uniformly random nodes in a 1000×1000 m area at 250 m and 100 m radii.
// The paper draws one topology per radius; we additionally quantify the
// claim ("when the radius is 250m, the networks are either connected or
// only a few nodes are disconnected ... [at 100m] the possibility of
// network connection is almost impossible") over many seeds.
type Fig1Result struct {
	Radii          []float64
	EdgeCount      []stats.MeanCI
	ComponentCount []stats.MeanCI
	IsolatedNodes  []stats.MeanCI
	ConnectedFrac  []float64
	Snapshots      []string // one rendered topology per radius
}

// fig1 runs the Figure-1 study: a static study of random point sets,
// not a protocol run, so it reads no matrix section.
func fig1(o Options) *Fig1Result {
	const n = 50
	region := mobility.Region{W: 1000, H: 1000}
	trials := o.Runs * 10 // cheap static study: use more seeds
	res := &Fig1Result{Radii: []float64{250, 100}}
	for _, r := range res.Radii {
		var edges, comps, isolated []float64
		connected := 0
		var snapshot string
		for t := 0; t < trials; t++ {
			stream := rng.New(o.BaseSeed + int64(t))
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = region.RandomPoint(stream)
			}
			g := geom.UnitDiskGraph(pts, r)
			edges = append(edges, float64(g.EdgeCount()))
			cs := g.Components()
			comps = append(comps, float64(len(cs)))
			iso := 0
			for _, c := range cs {
				if len(c) == 1 {
					iso++
				}
			}
			isolated = append(isolated, float64(iso))
			if g.Connected() {
				connected++
			}
			if t == 0 {
				pp := make([][2]float64, n)
				for i, p := range pts {
					pp[i] = [2]float64{p.X, p.Y}
				}
				snapshot = asciiplot.Scatter{
					Title:  fmt.Sprintf("Figure 1: 50 nodes, radius %.0f m, 1000x1000 m", r),
					W:      region.W,
					H:      region.H,
					Points: pp,
					Edges:  g.Edges(),
				}.Render()
			}
		}
		res.EdgeCount = append(res.EdgeCount, stats.ConfidenceInterval(edges, metrics.Confidence))
		res.ComponentCount = append(res.ComponentCount, stats.ConfidenceInterval(comps, metrics.Confidence))
		res.IsolatedNodes = append(res.IsolatedNodes, stats.ConfidenceInterval(isolated, metrics.Confidence))
		res.ConnectedFrac = append(res.ConnectedFrac, float64(connected)/float64(trials))
		res.Snapshots = append(res.Snapshots, snapshot)
	}
	return res
}

// Render prints the figure and the quantified connectivity claim.
func (r *Fig1Result) Render() string {
	var sb strings.Builder
	for _, snap := range r.Snapshots {
		sb.WriteString(snap)
		sb.WriteByte('\n')
	}
	rows := make([][]string, len(r.Radii))
	for i := range r.Radii {
		rows[i] = []string{
			fmt.Sprintf("%.0f m", r.Radii[i]),
			r.EdgeCount[i].String(),
			r.ComponentCount[i].String(),
			r.IsolatedNodes[i].String(),
			fmt.Sprintf("%.0f%%", 100*r.ConnectedFrac[i]),
		}
	}
	sb.WriteString(asciiplot.Table{
		Title:   "Figure 1 (quantified): topology of 50 nodes in 1000x1000 m",
		Headers: []string{"Radius", "Edges", "Components", "Isolated", "Connected"},
		Rows:    rows,
	}.Render())
	sb.WriteString("\nPaper claim: at 250 m networks are connected or nearly so;\n" +
		"at 100 m connection is almost impossible.\n")
	return sb.String()
}
