// Face routing on the planar LDTG spanner (§2.1/§2.3): greedy geographic
// forwarding gets stuck at local minima ("voids"); the planar localized
// Delaunay graph lets the packet escape by walking faces with the
// right-hand rule. This example builds a static topology, shows the
// spanner structure, traces one greedy+face (GFG) walk hop by hop, and
// then replays the exact same topology through the public API — Trace
// mobility with one-waypoint trajectories pins every node in place — to
// confirm the full protocol stack delivers over it.
//
//	go run ./examples/face_routing
package main

import (
	"fmt"
	"log"

	"glr"
	"glr/internal/asciiplot"
	"glr/internal/geom"
	"glr/internal/ldt"
	"glr/internal/rng"
)

func main() {
	const (
		n      = 45
		radius = 270.0
		w, h   = 1000.0, 1000.0
	)
	// Find a seed whose unit-disk graph is connected so the walk must
	// succeed.
	var pts []geom.Point
	for seed := int64(1); ; seed++ {
		r := rng.New(seed)
		pts = make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*w, r.Float64()*h)
		}
		if geom.UnitDiskGraph(pts, radius).Connected() {
			fmt.Printf("Connected topology found (seed %d)\n\n", seed)
			break
		}
	}

	udg := geom.UnitDiskGraph(pts, radius)
	spanner := ldt.BuildLDTG(pts, radius)
	fmt.Printf("Unit-disk graph: %d edges. 2-LDTG planar spanner: %d edges (planar: %v)\n",
		udg.EdgeCount(), spanner.EdgeCount(), spanner.IsPlanarEmbedding(pts))

	pp := make([][2]float64, n)
	for i, p := range pts {
		pp[i] = [2]float64{p.X, p.Y}
	}
	fmt.Print(asciiplot.Scatter{
		Title:  "2-LDTG planar spanner",
		W:      w,
		H:      h,
		Points: pp,
		Edges:  spanner.Edges(),
	}.Render())

	// Trace a GFG walk between the two most distant nodes.
	src, dst := mostDistantPair(pts)
	fmt.Printf("\nGFG walk from node %d %v to node %d %v:\n", src, pts[src], dst, pts[dst])
	cur := src
	var st ldt.FaceState
	for step := 0; cur != dst && step < 200; step++ {
		nbrs := spanner.Neighbors(cur)
		nbrPts := make([]geom.Point, len(nbrs))
		for j, nb := range nbrs {
			nbrPts[j] = pts[nb]
		}
		if !st.Active {
			if gi := ldt.GreedyNeighbor(pts[cur], nbrPts, pts[dst]); gi >= 0 {
				fmt.Printf("  greedy: %3d -> %3d  (%.0f m to go)\n",
					cur, nbrs[gi], pts[nbrs[gi]].Dist(pts[dst]))
				cur = nbrs[gi]
				continue
			}
			fmt.Printf("  LOCAL MINIMUM at %d — entering face mode\n", cur)
		}
		next, dec := st.Step(cur, pts[cur], nbrs, nbrPts, pts[dst])
		switch dec {
		case ldt.FaceForward:
			fmt.Printf("  face:   %3d -> %3d\n", cur, nbrs[next])
			cur = nbrs[next]
		case ldt.FaceExitGreedy:
			fmt.Printf("  face exit at %d — closer than entry, resuming greedy\n", cur)
		case ldt.FaceFail:
			log.Fatalf("face routing failed on a connected planar graph — this is a bug")
		}
	}
	if cur == dst {
		fmt.Println("Delivered.")
	} else {
		fmt.Println("Walk exceeded step budget.")
	}

	// Now the same topology under the full stack: Trace mobility with a
	// single waypoint per node pins the exact positions above, and an
	// explicit schedule sends one message over the walk's src→dst pair.
	paths := make([][]glr.TracePoint, n)
	for i, p := range pts {
		paths[i] = []glr.TracePoint{{T: 0, X: p.X, Y: p.Y}}
	}
	sc, err := glr.NewScenario(
		glr.WithRange(radius),
		glr.WithRegion(w, h),
		glr.WithMobility(glr.Trace{Paths: paths}),
		glr.WithWorkload(glr.ScheduleWorkload{{Src: src, Dst: dst, At: 5}}),
		glr.WithSimTime(120),
		glr.WithObserver(&glr.Observer{
			OnDelivered: func(e glr.DeliveryEvent) {
				if e.Duplicate {
					return // Algorithm 1 may send several copies; report the first
				}
				fmt.Printf("\nFull stack on the pinned topology: message %d/%d delivered to %d after %.2fs over %d hops.\n",
					e.Src, e.Seq, e.Dst, e.Latency(), e.Hops)
			},
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		log.Fatal(err)
	}
	if res.Delivered == 0 {
		fmt.Println("\nFull stack did not deliver within the horizon (MAC losses can do that).")
	}
}

func mostDistantPair(pts []geom.Point) (int, int) {
	bi, bj, best := 0, 1, 0.0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist2(pts[j]); d > best {
				bi, bj, best = i, j, d
			}
		}
	}
	return bi, bj
}
