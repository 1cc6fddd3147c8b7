package ldt

import (
	"math/rand"

	"glr/internal/geom"
)

// The external ldt_test package compares the Maintainer with
// internal/oracle, which imports this package; these are the internals
// and helpers its files share with the package's own tests.

// DelaunayEdge is the per-witness-set rule every LDTG construction here
// applies.
var DelaunayEdge = delaunayEdge

// RandomPoints returns n distinct points uniform in [0,w]×[0,h].
func RandomPoints(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, 0, n)
	seen := make(map[geom.Point]struct{}, n)
	for len(pts) < n {
		p := geom.Pt(rng.Float64()*w, rng.Float64()*h)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		pts = append(pts, p)
	}
	return pts
}

// PerWitnessNeighbors is the LDTG rule applied one witness set at a
// time: a candidate is accepted iff delaunayEdge finds it in self's K-hop
// set and in the K-hop set of each neighbor of self that holds both
// endpoints. It returns global ids in view order. The Maintainer ran this
// for every candidate before it scanned self's (K+1)-hop set, and runs it
// still for the candidates the points beyond K hops reject. It shares
// sosInside's tie-break with the Maintainer, so unlike the triangulating
// LDTGNeighbors it can be compared on exact ties.
func PerWitnessNeighbors(view *LocalView) []int {
	m := NewMaintainer()
	m.buildAdjacency(view)
	selfNbrs := m.adj[0]
	var acc []int
	set := m.khop(0)
	for _, nb := range selfNbrs {
		if delaunayEdge(view.Pts, set, 0, nb) {
			acc = append(acc, nb)
		}
	}
	for _, w := range selfNbrs {
		set := m.khop(w)
		keep := acc[:0]
		for _, nb := range acc {
			if m.seen[nb] != m.seenGen || delaunayEdge(view.Pts, set, 0, nb) {
				keep = append(keep, nb)
			}
		}
		acc = keep
	}
	ids := make([]int, len(acc))
	for i, li := range acc {
		ids[i] = view.IDs[li]
	}
	return ids
}
