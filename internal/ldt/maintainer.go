package ldt

import (
	"slices"
	"time"

	"glr/internal/geom"
)

// K is the hop depth of the witness sets an LDTG query uses: the paper's
// experiments route on distance-2 information, and beacons carry
// two-hop views, so no larger k would see more.
const K = 2

// Variant selects which local routing graph a Maintainer query builds;
// GLR's Config.Spanner holds one.
type Variant int

// Spanner variants.
const (
	// VariantLDTG is the paper's k-localized Delaunay triangulation.
	VariantLDTG Variant = iota
	// VariantGabriel is the Gabriel graph restricted to unit-disk edges.
	VariantGabriel
	// VariantUDG is every unit-disk neighbor, with no planarization.
	VariantUDG
)

// SpannerStats counts Maintainer activity. BuildTime is wall-clock time
// spent inside Neighbors calls (the protocol's whole spanner-construction
// cost).
type SpannerStats struct {
	Queries   uint64 // Neighbors calls
	BuildTime time.Duration

	// ResultHits, TriBuilds, SpecBuilds and SpecAdopted are always 0.
	// Every query decides each edge by empty-circle scans of the view's
	// points: nothing is triangulated, cached or built ahead of a query.
	// The fields stay because the repository benchmark reads them (see
	// internal/sim/benchcompat.go).
	ResultHits, TriBuilds, SpecBuilds, SpecAdopted uint64
}

// TriHitRate is always 0: no query triangulates. The repository
// benchmark reads it.
func (s SpannerStats) TriHitRate() float64 { return 0 }

// Maintainer answers spanner queries for the routing loop. One
// Maintainer is shared per simulation (it is single-threaded like the
// event loop that owns it) so its scratch buffers are reused across
// every node's queries; it keeps no state between queries, so each
// answer is a function of its view alone.
//
// An LDTG query accepts the edge (self, nb) iff it is a Delaunay edge of
// every witness set that contains both endpoints: the K-hop sets of self
// and of each 1-hop neighbor. All of them lie in self's (K+1)-hop set,
// and an edge that is Delaunay in a point set is Delaunay in every subset
// holding both endpoints. So one allocation-free scan per candidate with
// the robust predicates (edgeScan), over self's K-hop set and then on
// over the points one hop beyond it, decides nearly every edge; only an
// edge that those extra points reject is tested against each neighbor's
// K-hop set. In exact arithmetic those tests confirm the rejection: of
// the two points that reject an edge, one lies in the disk on the edge as
// diameter, so it neighbors self and is in every witness set. They keep
// the edge only where the rounding of the unit-disk test hides such a
// point from self.
// The Gabriel and UDG ablations read the same unit-disk adjacency: UDG
// answers self's row, and Gabriel keeps the row's entries whose closed
// diametral disk with self is empty (gabrielEdge, as in GabrielGraph).
type Maintainer struct {
	adj      [][]int // unit-disk adjacency of the view, ascending local indices
	seen     []uint32
	seenGen  uint32
	queue    []int
	members  []int
	accepted []int
	doubt    []int // accepted candidates the points beyond self's K-hop set reject
	accIDs   []int
	accPts   []geom.Point
	stats    SpannerStats
}

// NewMaintainer returns a Maintainer with empty scratch buffers.
func NewMaintainer() *Maintainer { return &Maintainer{} }

// Stats returns the accumulated counters.
func (m *Maintainer) Stats() SpannerStats { return m.stats }

// Neighbors returns the global ids and positions of the accepted spanner
// neighbors of view's self node, in view order, per the requested
// variant. The LDTG answer equals that of the test oracle's
// LDTGNeighbors at K (internal/oracle) on views in general position; on
// exact cocircular ties it follows the symbolic perturbation of
// sosInside, which keeps the spanner planar.
//
// The returned slices are scratch storage: callers may read them until
// the next Neighbors call on this Maintainer but must not modify or
// retain them (the routing loop reads them within one route check).
func (m *Maintainer) Neighbors(view *LocalView, variant Variant) ([]int, []geom.Point) {
	start := time.Now()
	defer func() { m.stats.BuildTime += time.Since(start) }()
	m.stats.Queries++

	m.buildAdjacency(view)
	var local []int
	switch variant {
	case VariantGabriel:
		local = m.gabrielNeighbors(view)
	case VariantUDG:
		local = m.adj[0]
	default:
		local = m.ldtgNeighbors(view)
	}
	m.accIDs, m.accPts = m.accIDs[:0], m.accPts[:0]
	for _, li := range local {
		m.accIDs = append(m.accIDs, view.IDs[li])
		m.accPts = append(m.accPts, view.Pts[li])
	}
	return m.accIDs, m.accPts
}

// ldtgNeighbors applies the paper's acceptance rule over the view and
// returns the accepted local indices in view order.
//
// Self's (K+1)-hop set T is listed with self's own K-hop set S first. A
// candidate that fails the scan of S is rejected: self is a witness. One
// that is still Delaunay after the scan goes on over the rest of T is
// Delaunay in every witness set, and is accepted. A candidate that only
// the points beyond S reject is decided by the K-hop set of each
// neighbor.
func (m *Maintainer) ldtgNeighbors(view *LocalView) []int {
	pts := view.Pts
	inner := len(m.khop(0))
	all := m.grow()
	set, extra := all[:inner], all[inner:]
	acc, doubt := m.accepted[:0], m.doubt[:0]
	for _, nb := range m.adj[0] {
		s := newEdgeScan(pts, 0, nb)
		if !s.scan(pts, set) || !s.holds(pts) {
			continue
		}
		if !s.scan(pts, extra) || !s.holds(pts) {
			doubt = append(doubt, nb)
		}
		acc = append(acc, nb)
	}
	for _, w := range m.adj[0] {
		if len(doubt) == 0 {
			break
		}
		// w's set holds self and each candidate: both neighbor self, and
		// K ≥ 2.
		set := m.khop(w)
		for i := 0; i < len(doubt); {
			nb := doubt[i]
			if delaunayEdge(pts, set, 0, nb) {
				i++
				continue
			}
			doubt = slices.Delete(doubt, i, i+1)
			j := slices.Index(acc, nb)
			acc = slices.Delete(acc, j, j+1)
		}
	}
	m.accepted, m.doubt = acc, doubt
	return acc
}

// gabrielNeighbors returns self's unit-disk neighbors whose closed
// diametral disk with self holds no other view point, in view order: the
// row of GabrielGraph over the view that belongs to self.
func (m *Maintainer) gabrielNeighbors(view *LocalView) []int {
	acc := m.accepted[:0]
	for _, nb := range m.adj[0] {
		if gabrielEdge(view.Pts, 0, nb) {
			acc = append(acc, nb)
		}
	}
	m.accepted = acc
	return acc
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

// khop returns the local indices within graph distance K of w over
// m.adj, including w, nearer hops first, in scratch storage valid until
// the next khop call. Until then, v is a member iff m.seen[v] == m.seenGen,
// and grow extends the set.
func (m *Maintainer) khop(w int) []int {
	n := len(m.adj)
	for len(m.seen) < n {
		m.seen = append(m.seen, 0)
	}
	m.seenGen++
	m.seen[w] = m.seenGen
	m.members = append(m.members[:0], w)
	m.queue = append(m.queue[:0], w)
	for depth := 0; depth < K; depth++ {
		m.grow()
	}
	return m.members
}

// grow adds to the set of the last khop call the points one hop beyond
// it and returns the whole set, its earlier members first.
func (m *Maintainer) grow() []int {
	gen := m.seenGen
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
	return m.members
}

// delaunayEdge reports whether the segment pts[a]pts[b] is an edge of the
// Delaunay triangulation of the points pts[i], i ∈ set (set contains a
// and b), under the symbolic perturbation of sosInside. Points that
// coincide with an endpoint are one vertex with it, and coincident
// endpoints make no edge, as when a triangulation coalesces duplicates.
func delaunayEdge(pts []geom.Point, set []int, a, b int) bool {
	s := newEdgeScan(pts, a, b)
	return s.scan(pts, set) && s.holds(pts)
}

// edgeScan is delaunayEdge's test of the segment a→b, split so that one
// scan can go on over more points.
//
// The edge is Delaunay iff some circle through both endpoints has no
// point strictly inside. Such circles form a one-parameter family: a
// point left of a→b bounds it from one side and a point to the right from
// the other. The scan keeps the tightest bound on each side, the point
// strictly inside the circles of all others on its side; the edge exists
// unless the right winner is strictly inside the left winner's circle. A
// point collinear with and strictly between the endpoints is inside every
// such circle; collinear points beyond them are outside every one. More
// points only tighten the bounds, so an edge of a point set is an edge of
// every subset that holds both endpoints.
type edgeScan struct {
	pa, pb      geom.Point
	left, right int // local indices of the winners, -1 before any
}

// newEdgeScan starts the test of a→b with no point scanned.
func newEdgeScan(pts []geom.Point, a, b int) edgeScan {
	return edgeScan{pa: pts[a], pb: pts[b], left: -1, right: -1}
}

// scan folds the points pts[i], i ∈ set, into the winners. It returns
// false, and the edge is rejected in every superset too, if the
// endpoints coincide or a point lies strictly between them.
func (s *edgeScan) scan(pts []geom.Point, set []int) bool {
	pa, pb := s.pa, s.pb
	if pa.Eq(pb) {
		return false
	}
	for _, i := range set {
		p := pts[i]
		switch o := geom.Orient(pa, pb, p); {
		case o > 0:
			if s.left < 0 || sosInside(pa, pb, pts[s.left], p) {
				s.left = i
			}
		case o < 0:
			if s.right < 0 || sosInside(pb, pa, pts[s.right], p) {
				s.right = i
			}
		case geom.PointOnSegment(p, pa, pb) && !p.Eq(pa) && !p.Eq(pb):
			return false
		}
	}
	return true
}

// holds reports whether the edge is Delaunay in the points scanned so
// far, given that scan has not rejected it.
func (s *edgeScan) holds(pts []geom.Point) bool {
	return s.left < 0 || s.right < 0 || !sosInside(s.pa, s.pb, pts[s.left], pts[s.right])
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
