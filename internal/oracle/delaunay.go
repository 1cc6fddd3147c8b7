package oracle

import (
	"errors"
	"math"
	"sort"

	"glr/internal/geom"
)

// Triangle holds indices into a point slice, stored in counterclockwise
// order.
type Triangle struct {
	A, B, C int
}

// Triangulation is the result of a Delaunay construction over a fixed point
// set. Triangles reference Points by index.
type Triangulation struct {
	Points    []geom.Point
	Triangles []Triangle
}

// ErrDuplicatePoint is returned by Delaunay and DelaunayGraph when the
// input contains two points with identical coordinates. Callers that may
// hold co-located nodes must coalesce them first.
var ErrDuplicatePoint = errors.New("oracle: duplicate point in Delaunay input")

// Delaunay computes the Delaunay triangulation of pts with the incremental
// Bowyer–Watson algorithm, without a super-triangle: points falling
// outside the current convex hull are connected through the hull edges
// they can see, which is the exact at-infinity semantics a finite
// super-triangle only approximates (and gets wrong near the hull). It is
// O(n²) in the worst case. Nothing on the protocol's path triangulates:
// the spanner decides each edge by an empty-circle scan, and this
// construction is the independent oracle tests check that rule against.
//
// Degenerate inputs are handled: fewer than 3 points, or all points
// collinear, yield a triangulation with no triangles (use DelaunayGraph for
// the limit graph, which connects collinear points in path order).
func Delaunay(pts []geom.Point) (*Triangulation, error) {
	t := &Triangulation{Points: pts}
	n := len(pts)
	if hasDuplicates(pts) {
		return nil, ErrDuplicatePoint
	}
	if n < 3 || allCollinear(pts) {
		return t, nil
	}

	// Seed with the first non-collinear triple (0, 1, seed). The bound
	// guards the scan: allCollinear and this loop use the same exact
	// predicate today, but an out-of-range seed must degrade to the
	// no-triangle result rather than index past the slice if the
	// predicates ever diverge on near-collinear input.
	seed := 2
	for seed < n && geom.Orient(pts[0], pts[1], pts[seed]) == 0 {
		seed++
	}
	if seed == n {
		return t, nil
	}
	tris := []Triangle{normalizeCCW(pts, Triangle{0, 1, seed})}

	for i := 2; i < n; i++ {
		if i == seed {
			continue
		}
		tris = insertPoint(pts, tris, i)
	}
	t.Triangles = tris
	return t, nil
}

// insertPoint adds point index i to the triangulation tris and returns the
// updated triangle list.
func insertPoint(pts []geom.Point, tris []Triangle, i int) []Triangle {
	p := pts[i]

	// Cavity: every triangle whose circumcircle strictly contains p.
	var bad []Triangle
	keep := make([]Triangle, 0, len(tris))
	for _, tr := range tris {
		if geom.InCircle(pts[tr.A], pts[tr.B], pts[tr.C], p) > 0 {
			bad = append(bad, tr)
		} else {
			keep = append(keep, tr)
		}
	}

	// Hull edges are directed edges that occur in exactly one triangle,
	// oriented with the interior on their left. A hull edge is "visible"
	// from p when p lies strictly on its outer (right) side; such edges
	// act as virtual cavity triangles, which is the exact limit of the
	// super-triangle construction as its corners go to infinity.
	dir := make(map[[2]int]bool, 3*len(tris))
	for _, tr := range tris {
		dir[[2]int{tr.A, tr.B}] = true
		dir[[2]int{tr.B, tr.C}] = true
		dir[[2]int{tr.C, tr.A}] = true
	}
	boundary := make(map[edgeKey]int, 3*len(bad)+8)
	for _, tr := range bad {
		boundary[ek(tr.A, tr.B)]++
		boundary[ek(tr.B, tr.C)]++
		boundary[ek(tr.C, tr.A)]++
	}
	for de := range dir {
		if dir[[2]int{de[1], de[0]}] {
			continue // interior edge: reverse also present
		}
		if geom.Orient(pts[de[0]], pts[de[1]], p) < 0 {
			boundary[ek(de[0], de[1])]++ // visible hull edge
		}
	}

	// Retriangulate: connect p to every edge on the combined boundary.
	// Multiplicity 2 means the edge is interior to the merged region
	// (either between two cavity triangles, or between a cavity triangle
	// and the visible outside); skip it. Zero-area fans (p exactly
	// collinear with the edge) are skipped — the surrounding fans cover
	// the region exactly.
	newTris := keep
	for e, count := range boundary {
		if count != 1 {
			continue
		}
		if geom.Orient(pts[e.u], pts[e.v], p) == 0 {
			continue
		}
		newTris = append(newTris, normalizeCCW(pts, Triangle{e.u, e.v, i}))
	}
	return newTris
}

// Edges returns the undirected edge set of the triangulation as pairs of
// point indices with u < v, in deterministic sorted order.
func (t *Triangulation) Edges() [][2]int {
	set := make(map[edgeKey]struct{}, 3*len(t.Triangles))
	for _, tr := range t.Triangles {
		set[ek(tr.A, tr.B)] = struct{}{}
		set[ek(tr.B, tr.C)] = struct{}{}
		set[ek(tr.C, tr.A)] = struct{}{}
	}
	edges := make([][2]int, 0, len(set))
	for e := range set {
		edges = append(edges, [2]int{e.u, e.v})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// DelaunayGraph computes the Delaunay triangulation of pts and returns its
// edge graph. Degenerate inputs (n < 3 or all collinear) produce the limit
// graph: points connected in order along the common line.
func DelaunayGraph(pts []geom.Point) (*geom.Graph, error) {
	g := geom.NewGraph(len(pts))
	if len(pts) < 2 {
		return g, nil
	}
	if hasDuplicates(pts) {
		return nil, ErrDuplicatePoint
	}
	if len(pts) == 2 {
		g.AddEdge(0, 1)
		return g, nil
	}
	if allCollinear(pts) {
		order := collinearOrder(pts)
		for i := 0; i+1 < len(order); i++ {
			g.AddEdge(order[i], order[i+1])
		}
		return g, nil
	}
	t, err := Delaunay(pts)
	if err != nil {
		return nil, err
	}
	for _, e := range t.Edges() {
		g.AddEdge(e[0], e[1])
	}
	return g, nil
}

type edgeKey struct{ u, v int }

func ek(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

func normalizeCCW(pts []geom.Point, tr Triangle) Triangle {
	if geom.Orient(pts[tr.A], pts[tr.B], pts[tr.C]) < 0 {
		tr.B, tr.C = tr.C, tr.B
	}
	return tr
}

func hasDuplicates(pts []geom.Point) bool {
	seen := make(map[geom.Point]struct{}, len(pts))
	for _, p := range pts {
		if _, dup := seen[p]; dup {
			return true
		}
		seen[p] = struct{}{}
	}
	return false
}

func allCollinear(pts []geom.Point) bool {
	if len(pts) < 3 {
		return true
	}
	for i := 2; i < len(pts); i++ {
		if geom.Orient(pts[0], pts[1], pts[i]) != 0 {
			return false
		}
	}
	return true
}

// collinearOrder returns indices of collinear pts sorted along their common
// line.
func collinearOrder(pts []geom.Point) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	// Project on the dominant axis of the direction vector.
	dir := pts[1].Sub(pts[0])
	useX := math.Abs(dir.X) >= math.Abs(dir.Y)
	sort.Slice(idx, func(i, j int) bool {
		a, b := pts[idx[i]], pts[idx[j]]
		if useX {
			if a.X != b.X {
				return a.X < b.X
			}
			return a.Y < b.Y
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.X < b.X
	})
	return idx
}
