// Command topoviz renders random-topology snapshots in the style of the
// paper's Figure 1: node placements, unit-disk connectivity, and the
// derived routing graphs (Gabriel graph and 2-LDTG planar spanner).
//
// Examples:
//
//	topoviz -radius 250
//	topoviz -radius 100 -nodes 50 -w 1000 -h 1000 -graph ldtg
//	topoviz -radius 150 -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"glr/internal/asciiplot"
	"glr/internal/geom"
	"glr/internal/ldt"
	"glr/internal/rng"
)

func main() {
	var (
		radius = flag.Float64("radius", 250, "transmission radius in metres")
		nodes  = flag.Int("nodes", 50, "number of nodes")
		width  = flag.Float64("w", 1000, "region width, metres")
		height = flag.Float64("h", 1000, "region height, metres")
		seed   = flag.Int64("seed", 1, "RNG seed")
		graph  = flag.String("graph", "udg", `graph to draw: "udg", "gabriel", or "ldtg"`)
		stats  = flag.Bool("stats", false, "print connectivity statistics over 100 seeds")
	)
	flag.Parse()

	r := rng.New(*seed)
	pts := make([]geom.Point, *nodes)
	pp := make([][2]float64, *nodes)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()**width, r.Float64()**height)
		pp[i] = [2]float64{pts[i].X, pts[i].Y}
	}

	var g *geom.Graph
	switch *graph {
	case "udg":
		g = geom.UnitDiskGraph(pts, *radius)
	case "gabriel":
		g = ldt.GabrielGraph(pts, *radius)
	case "ldtg":
		g = ldt.BuildLDTG(pts, *radius)
	default:
		fmt.Fprintf(os.Stderr, "topoviz: unknown graph %q\n", *graph)
		os.Exit(2)
	}

	fmt.Print(asciiplot.Scatter{
		Title: fmt.Sprintf("%d nodes, radius %.0f m, %s (%d edges, %d components)",
			*nodes, *radius, *graph, g.EdgeCount(), len(g.Components())),
		W:      *width,
		H:      *height,
		Points: pp,
		Edges:  g.Edges(),
	}.Render())

	if *stats {
		connected, edgeSum, isoSum := 0, 0, 0
		const trials = 100
		for t := 0; t < trials; t++ {
			r2 := rng.New(*seed + int64(t))
			ps := make([]geom.Point, *nodes)
			for i := range ps {
				ps[i] = geom.Pt(r2.Float64()**width, r2.Float64()**height)
			}
			ug := geom.UnitDiskGraph(ps, *radius)
			if ug.Connected() {
				connected++
			}
			edgeSum += ug.EdgeCount()
			for _, c := range ug.Components() {
				if len(c) == 1 {
					isoSum++
				}
			}
		}
		thresh := geom.ConnectivityThreshold(*nodes, *width**height, 10)
		fmt.Printf("\nOver %d seeds: connected %d%%, avg edges %.1f, avg isolated nodes %.2f\n",
			trials, connected*100/trials, float64(edgeSum)/trials, float64(isoSum)/trials)
		fmt.Printf("Connectivity threshold radius r* (s=10): %.1f m — Algorithm 1 uses %s\n",
			thresh, copyRule(*radius, thresh))
	}
}

func copyRule(r, thresh float64) string {
	if r >= thresh {
		return "a single copy (network likely connected)"
	}
	return "multiple copies (sparse network)"
}
