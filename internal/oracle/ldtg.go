package oracle

import (
	"fmt"
	"slices"

	"glr/internal/geom"
	"glr/internal/ldt"
)

// The functions in this file are the from-scratch answers to an
// ldt.Maintainer query on a view. They rebuild whole graphs of the view
// per call. LDTGNeighbors triangulates every witness set with
// DelaunayGraph, so it shares no code with the Maintainer's per-edge
// empty-circle scans.

// KnownGraph returns the unit-disk graph over the view's points (local
// indices; 0 is self).
func KnownGraph(v *ldt.LocalView) *geom.Graph {
	return geom.UnitDiskGraph(v.Pts, v.R)
}

// GabrielNeighbors returns the local indices of this node's incident
// Gabriel-graph edges within the view (ablation alternative to the LDTG).
func GabrielNeighbors(v *ldt.LocalView) []int {
	return ldt.GabrielGraph(v.Pts, v.R).Neighbors(0)
}

// UDGNeighbors returns the local indices of every known 1-hop neighbor
// (greedy routing with no planarization; ablation alternative).
func UDGNeighbors(v *ldt.LocalView) []int {
	return KnownGraph(v).Neighbors(0)
}

// LDTGNeighbors computes, from this node's standpoint, the LDTG edges
// incident to self, applying the paper's acceptance rule over the
// knowledge horizon: uv accepted iff uv ∈ A(Nk(self)) and uv ∈ A(Nk(w))
// for every known 1-hop neighbor w whose (known) k-neighborhood contains
// both endpoints. It returns local indices of accepted neighbors, sorted,
// so the list follows the view's order.
//
// Boundary truncation (the node cannot see past its k-hop horizon) can
// make this differ slightly from ldt.BuildLDTG over the whole point set —
// exactly the imprecision a real deployment has; greedy forwarding only
// requires each node's own incident edge set.
//
// The Maintainer returns the same neighbors in the same order, mapped to
// global ids, whenever the witness sets have no four cocircular points
// (their Delaunay triangulations are then unique). On exact ties it
// follows a symbolic perturbation, while this function takes whichever
// triangulation Delaunay builds.
func LDTGNeighbors(v *ldt.LocalView, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("oracle: k must be ≥ 1, got %d", k)
	}
	known := KnownGraph(v)

	// Triangulate each witness's k-neighborhood once. The witnesses are
	// self and self's 1-hop neighbors. Coincident points are coalesced:
	// two nodes at identical coordinates share one Delaunay vertex, so a
	// zero-length edge is never present.
	type witness struct {
		dt  *geom.Graph
		idx map[int]int // member → vertex of dt
	}
	witnesses := append([]int{0}, known.Neighbors(0)...)
	wit := make(map[int]witness, len(witnesses))
	for _, w := range witnesses {
		byCoord := make(map[geom.Point]int)
		idx := make(map[int]int)
		var sub []geom.Point
		for _, m := range known.KHop(w, k) {
			p := v.Pts[m]
			si, dup := byCoord[p]
			if !dup {
				si = len(sub)
				byCoord[p] = si
				sub = append(sub, p)
			}
			idx[m] = si
		}
		dt, err := DelaunayGraph(sub)
		if err != nil {
			return nil, err
		}
		wit[w] = witness{dt: dt, idx: idx}
	}

	var accepted []int
	for _, nb := range known.Neighbors(0) {
		ok := true
		for _, w := range witnesses {
			ww := wit[w]
			a, inA := ww.idx[0]
			b, inB := ww.idx[nb]
			if inA && inB && !slices.Contains(ww.dt.Neighbors(a), b) {
				ok = false
				break
			}
		}
		if ok {
			accepted = append(accepted, nb)
		}
	}
	return accepted, nil
}
