// Package ldt implements the paper's §2.1 geometric machinery: the k-local
// Delaunay triangulation graph (k-LDTG), a planar geometric spanner built
// from k-hop neighborhood information only, plus the face-routing
// primitives (right-hand rule traversal) used to escape local minima on
// that planar graph.
//
// One rule decides every LDTG edge: delaunayEdge, an empty-circle scan of
// one witness set under a symbolic perturbation that breaks exact ties
// (cocircular, collinear and coincident points) the same way in every
// set. Two constructions apply it:
//
//   - BuildLDTG: the whole graph over the full point set, used by
//     analysis, figures and face-routing examples.
//   - Maintainer: the edges a single node accepts from its own
//     distance-k view (beacon-fed). Because our connectivity model is a
//     unit-disk graph, known positions imply known adjacency, so a node
//     reconstructs the local topology from positions alone. This is what
//     the GLR protocol runs. Every witness set of a node's edges lies in
//     its (k+1)-hop set, and an edge Delaunay there is Delaunay in every
//     subset, so one scan of that set accepts nearly every edge; only an
//     edge the points beyond k hops reject is scanned witness by witness.
//
// LocalView.LDTGNeighbors (oracle.go) is the triangulating oracle the
// Maintainer is tested against; only tests call it. On exact ties, where
// triangulations differ, the tests compare the Maintainer with the
// per-witness rule, each witness set scanned in turn.
package ldt

import (
	"fmt"
	"math"
	"slices"

	"glr/internal/geom"
)

// BuildLDTG computes the k-LDTG over pts with transmission radius r: an
// edge uv (necessarily a unit-disk edge) is accepted iff it is a Delaunay
// edge of Nk(w) for every 1-hop neighbor w of u or v (u and v included)
// whose k-neighborhood contains both u and v. This is the paper's
// acceptance rule ("we do this to obtain a planar graph directly,
// avoiding the extra time incurred by the planar process"), applied
// symmetrically from both endpoints. Coincident points are one vertex, so
// an edge between them is never accepted.
//
// The result is planar for k ≥ 2 and contains the Gabriel graph restricted
// to unit-disk edges of positive length, hence is connected whenever the
// unit-disk graph is and no two points coincide.
func BuildLDTG(pts []geom.Point, r float64, k int) (*geom.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("ldt: k must be ≥ 1, got %d", k)
	}
	udg := geom.UnitDiskGraph(pts, r)
	hood := make([][]int, len(pts)) // ascending, as KHop returns them
	for u := range pts {
		hood[u] = udg.KHop(u, k)
	}
	holds := func(w, x int) bool {
		_, ok := slices.BinarySearch(hood[w], x)
		return ok
	}
	out := geom.NewGraph(len(pts))
	for _, e := range udg.Edges() {
		u, v := e[0], e[1]
		accept := true
		for _, w := range append(udg.Neighbors(u), udg.Neighbors(v)...) {
			if holds(w, u) && holds(w, v) && !delaunayEdge(pts, hood[w], u, v) {
				accept = false
				break
			}
		}
		if accept {
			out.AddEdge(u, v)
		}
	}
	return out, nil
}

// GabrielGraph returns the Gabriel graph restricted to unit-disk edges:
// uv is kept iff |uv| ≤ r and the closed disk with diameter uv contains no
// other point (the closed-disk rule keeps the graph planar even for
// cocircular configurations such as square corners). It is a connected
// (when the UDG is) planar subgraph of the LDTG, used in tests and as a
// baseline spanner.
func GabrielGraph(pts []geom.Point, r float64) *geom.Graph {
	g := geom.NewGraph(len(pts))
	r2 := r * r
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist2(pts[j]) <= r2 && gabrielEdge(pts, i, j) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// gabrielEdge reports whether the closed disk with diameter pts[i]pts[j]
// holds no point of pts other than those two.
func gabrielEdge(pts []geom.Point, i, j int) bool {
	mid := geom.Midpoint(pts[i], pts[j])
	rad2 := pts[i].Dist2(pts[j]) / 4
	for m := range pts {
		if m != i && m != j && mid.Dist2(pts[m]) <= rad2 {
			return false
		}
	}
	return true
}

// LocalView is what one node knows about its surroundings: its own id and
// the ids/positions of nodes within graph distance k (beacon-fed; self
// first). Because connectivity is a unit-disk relation, the view's
// adjacency is derived from positions.
type LocalView struct {
	SelfID int
	IDs    []int        // IDs[0] == SelfID
	Pts    []geom.Point // parallel to IDs
	R      float64      // transmission radius
}

// NewLocalView validates and builds a view. ids[0] must be selfID.
func NewLocalView(selfID int, ids []int, pts []geom.Point, r float64) (*LocalView, error) {
	v := &LocalView{}
	if err := v.Set(selfID, ids, pts, r); err != nil {
		return nil, err
	}
	return v, nil
}

// Set validates the inputs exactly as NewLocalView does and, when they
// pass, fills v with them, keeping ids and pts (not copies). On error v
// is left unchanged. A caller that queries every tick refills one view
// with Set instead of building a new one.
func (v *LocalView) Set(selfID int, ids []int, pts []geom.Point, r float64) error {
	if len(ids) == 0 || ids[0] != selfID {
		return fmt.Errorf("ldt: view must list self first")
	}
	if len(ids) != len(pts) {
		return fmt.Errorf("ldt: ids/pts length mismatch %d != %d", len(ids), len(pts))
	}
	if !(r > 0) || math.IsInf(r, 1) {
		return fmt.Errorf("ldt: radius must be positive and finite, got %v", r)
	}
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("ldt: position %d of the view is not finite: %v", i, p)
		}
	}
	*v = LocalView{SelfID: selfID, IDs: ids, Pts: pts, R: r}
	return nil
}
