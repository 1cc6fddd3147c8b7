package ldt

import (
	"fmt"
	"time"

	"glr/internal/geom"
)

// Variant selects which local routing graph a Maintainer query builds.
// It mirrors the protocol-level spanner choice without importing it.
type Variant int

// Spanner variants.
const (
	VariantLDTG Variant = iota
	VariantGabriel
	VariantUDG
)

// SpannerStats counts Maintainer activity. BuildTime is wall-clock time
// spent inside Neighbors calls (the protocol's whole spanner-construction
// cost).
type SpannerStats struct {
	Queries   uint64 // Neighbors calls
	BuildTime time.Duration

	// ResultHits, TriBuilds, TriHits, SpecBuilds and SpecAdopted are
	// always 0. Every query decides each edge by empty-circle scans of
	// its witness sets: nothing is triangulated, cached or built ahead
	// of a query. The fields stay because the repository benchmark reads
	// them (see internal/sim/benchcompat.go).
	ResultHits, TriBuilds, TriHits, SpecBuilds, SpecAdopted uint64
}

// TriHitRate is always 0, like TriHits; the repository benchmark reads it.
func (s SpannerStats) TriHitRate() float64 { return 0 }

// Maintainer answers spanner queries for the routing loop. One
// Maintainer is shared per simulation (it is single-threaded like the
// event loop that owns it) so its scratch buffers are reused across
// every node's queries; it keeps no state between queries, so each
// answer is a function of its view alone.
//
// An LDTG query accepts the edge (self, nb) iff it is a Delaunay edge of
// every witness set that contains both endpoints: the k-hop sets of self
// and of each 1-hop neighbor. Each test is one allocation-free scan of a
// witness set with the robust predicates (delaunayEdge), starting with
// self's set, so later witnesses test only the candidates that survive.
type Maintainer struct {
	adj      [][]int // unit-disk adjacency of the view, ascending local indices
	seen     []uint32
	seenGen  uint32
	queue    []int
	members  []int
	accepted []int
	accIDs   []int
	accPts   []geom.Point
	stats    SpannerStats
}

// NewMaintainer returns a Maintainer with empty scratch buffers.
func NewMaintainer() *Maintainer { return &Maintainer{} }

// Stats returns the accumulated counters.
func (m *Maintainer) Stats() SpannerStats { return m.stats }

// Neighbors returns the global ids and positions of the accepted spanner
// neighbors of view's self node, in view order, per the requested variant
// (k applies to the LDTG only). The LDTG answer equals LDTGNeighbors' on
// views in general position; on exact cocircular ties it follows the
// symbolic perturbation of sosInside, which keeps the spanner planar.
//
// The returned slices are scratch storage: callers may read them until
// the next Neighbors call on this Maintainer but must not modify or
// retain them (the routing loop reads them within one route check).
func (m *Maintainer) Neighbors(view *LocalView, variant Variant, k int) ([]int, []geom.Point, error) {
	start := time.Now()
	defer func() { m.stats.BuildTime += time.Since(start) }()
	m.stats.Queries++

	var local []int
	var err error
	switch variant {
	case VariantGabriel:
		local = view.GabrielNeighbors()
	case VariantUDG:
		local = view.UDGNeighbors()
	default:
		local, err = m.ldtgNeighbors(view, k)
		if err != nil {
			return nil, nil, err
		}
	}
	m.accIDs, m.accPts = m.accIDs[:0], m.accPts[:0]
	for _, li := range local {
		m.accIDs = append(m.accIDs, view.IDs[li])
		m.accPts = append(m.accPts, view.Pts[li])
	}
	return m.accIDs, m.accPts, nil
}

// ldtgNeighbors applies the paper's acceptance rule over the view and
// returns the accepted local indices in view order. Self's witness set
// contains every candidate, so it filters first; each neighbor's set
// then re-tests the survivors it contains.
func (m *Maintainer) ldtgNeighbors(view *LocalView, k int) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("ldt: k must be ≥ 1, got %d", k)
	}
	m.buildAdjacency(view)
	selfNbrs := m.adj[0]
	acc := m.accepted[:0]
	set := m.khop(0, k)
	for _, nb := range selfNbrs {
		if delaunayEdge(view.Pts, set, 0, nb) {
			acc = append(acc, nb)
		}
	}
	for _, w := range selfNbrs {
		if len(acc) == 0 {
			break
		}
		set := m.khop(w, k) // contains self: w is a neighbor and k ≥ 1
		keep := acc[:0]
		for _, nb := range acc {
			if m.seen[nb] != m.seenGen || delaunayEdge(view.Pts, set, 0, nb) {
				keep = append(keep, nb)
			}
		}
		acc = keep
	}
	m.accepted = acc
	return acc, nil
}

// buildAdjacency fills m.adj with the view's unit-disk adjacency lists
// (ascending local indices), reusing the backing arrays.
func (m *Maintainer) buildAdjacency(view *LocalView) {
	n := len(view.Pts)
	for len(m.adj) < n {
		m.adj = append(m.adj, nil)
	}
	for i := 0; i < n; i++ {
		m.adj[i] = m.adj[i][:0]
	}
	r2 := view.R * view.R
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if view.Pts[i].Dist2(view.Pts[j]) <= r2 {
				m.adj[i] = append(m.adj[i], j)
				m.adj[j] = append(m.adj[j], i)
			}
		}
	}
}

// khop returns the local indices within graph distance k of w over m.adj,
// including w, in scratch storage valid until the next khop call. Until
// then, v is a member iff m.seen[v] == m.seenGen.
func (m *Maintainer) khop(w, k int) []int {
	n := len(m.adj)
	for len(m.seen) < n {
		m.seen = append(m.seen, 0)
	}
	m.seenGen++
	gen := m.seenGen
	m.members = m.members[:0]
	m.queue = m.queue[:0]
	m.seen[w] = gen
	m.members = append(m.members, w)
	m.queue = append(m.queue, w)
	for depth := 0; depth < k && len(m.queue) > 0; depth++ {
		next := len(m.members)
		for _, u := range m.queue {
			for _, v := range m.adj[u] {
				if m.seen[v] != gen {
					m.seen[v] = gen
					m.members = append(m.members, v)
				}
			}
		}
		m.queue = append(m.queue[:0], m.members[next:]...)
	}
	return m.members
}

// delaunayEdge reports whether the segment pts[a]pts[b] is an edge of the
// Delaunay triangulation of the points pts[i], i ∈ set (set contains a
// and b), under the symbolic perturbation of sosInside. Points that
// coincide with an endpoint are one vertex with it, and coincident
// endpoints make no edge, as when a triangulation coalesces duplicates.
//
// The edge is Delaunay iff some circle through both endpoints has no
// point strictly inside. Such circles form a one-parameter family: a
// point left of a→b bounds it from one side and a point to the right from
// the other. One scan keeps the tightest bound on each side, the point
// strictly inside the circles of all others on its side; the edge exists
// unless the right winner is strictly inside the left winner's circle. A
// point collinear with and strictly between the endpoints is inside every
// such circle; collinear points beyond them are outside every one.
func delaunayEdge(pts []geom.Point, set []int, a, b int) bool {
	pa, pb := pts[a], pts[b]
	if pa.Eq(pb) {
		return false
	}
	left, right := -1, -1
	for _, i := range set {
		p := pts[i]
		switch o := geom.Orient(pa, pb, p); {
		case o > 0:
			if left < 0 || sosInside(pa, pb, pts[left], p) {
				left = i
			}
		case o < 0:
			if right < 0 || sosInside(pb, pa, pts[right], p) {
				right = i
			}
		case geom.PointOnSegment(p, pa, pb) && !p.Eq(pa) && !p.Eq(pb):
			return false
		}
	}
	return left < 0 || right < 0 || !sosInside(pa, pb, pts[left], pts[right])
}

// sosInside reports whether d is strictly inside the circle through a, b
// and c, which are in counterclockwise order, with d off the line ab.
// Exact ties (d on the circle) are broken by Simulation of Simplicity
// (Edelsbrunner–Mücke): each point's lift |p|² is raised by an
// infinitesimal that shrinks along the lexicographic (X, Y) order, so the
// lexicographically smallest point has the largest. Raising the lift
// moves a point outward, and raising a circle point's lift tilts the
// circle's plane in the lifted space by that point's barycentric weight
// at d, so the tie goes to the first point in that order whose term is
// nonzero: outside if it is d, else the sign of its barycentric
// coordinate of d.
//
// The perturbation depends on position alone, so every witness set and
// every node's view sees one perturbed point set: a coincident point is
// the same vertex, and no ordering of the points can change an answer.
// A point coincident with c is on the circle and stays a tie (false).
func sosInside(a, b, c, d geom.Point) bool {
	if s := geom.InCircle(a, b, c, d); s != 0 {
		return s > 0
	}
	if d.Eq(c) {
		return false
	}
	// Four distinct cocircular points: no three are collinear, so every
	// term is nonzero and the smallest point decides.
	first := d
	for _, p := range [...]geom.Point{a, b, c} {
		if lexLess(p, first) {
			first = p
		}
	}
	switch first {
	case a:
		return geom.Orient(d, b, c) > 0
	case b:
		return geom.Orient(a, d, c) > 0
	case c:
		return geom.Orient(a, b, d) > 0
	}
	return false
}

// lexLess orders points by X, then Y.
func lexLess(p, q geom.Point) bool {
	return p.X < q.X || (p.X == q.X && p.Y < q.Y)
}
