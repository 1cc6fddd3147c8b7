package ldt

import (
	"fmt"
	"math"
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
	Queries    uint64 // Neighbors calls
	ResultHits uint64 // always 0 (see below)
	TriBuilds  uint64 // witness triangulations built
	TriHits    uint64 // witness triangulations reused from the cache
	Evictions  uint64 // cache entries dropped by the sweep
	BuildTime  time.Duration

	// ResultHits, SpecBuilds and SpecAdopted are always 0. Every query
	// builds its answer from the view, and spanner builds run only on
	// the query path; the fields stay because the repository benchmark
	// reads them (see internal/sim/benchcompat.go).
	SpecBuilds, SpecAdopted uint64
}

// TriHitRate returns the fraction of witness-triangulation lookups served
// from the cache.
func (s SpannerStats) TriHitRate() float64 {
	total := s.TriBuilds + s.TriHits
	if total == 0 {
		return 0
	}
	return float64(s.TriHits) / float64(total)
}

// Add accumulates counters from another stats value.
func (s *SpannerStats) Add(o SpannerStats) {
	s.Queries += o.Queries
	s.TriBuilds += o.TriBuilds
	s.TriHits += o.TriHits
	s.Evictions += o.Evictions
	s.BuildTime += o.BuildTime
}

// Cache retention parameters: an entry unused for cacheTTL simulated
// seconds is dropped; entries whose members have moved (per Observe) are
// dropped one sweep after they stop being queried. Sweeps piggyback on
// queries at most once per sweepEvery simulated seconds.
const (
	cacheTTL   = 3.0
	sweepEvery = 1.0
)

// triEntry caches one witness-neighborhood Delaunay triangulation. Keys
// are exact: the member ids and their IEEE-754 position bits, sorted by
// id, so any movement or membership change misses rather than returning a
// stale graph. ids/pts are the key material; idx maps a member id to its
// triangulation vertex (coincident members share a vertex) and edges
// holds the undirected edge set over those vertices, packed u<<20|v with
// u < v.
type triEntry struct {
	ids     []int
	pts     []geom.Point
	edges   map[uint64]struct{}
	idx     map[int]int
	lastHit float64
}

// hasEdge reports whether the triangulation connects members a and b
// (global ids, both known to be members).
func (e *triEntry) hasEdge(a, b int) bool {
	u, v := e.idx[a], e.idx[b]
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	_, ok := e.edges[uint64(u)<<20|uint64(v)]
	return ok
}

// buildCtx is the scratch state one spanner build needs: the mesh
// triangulator plus adjacency/BFS/sort buffers and the returned answer,
// reused across queries.
type buildCtx struct {
	tr       *geom.Triangulator
	order    []int
	adj      [][]int
	seen     []uint32
	seenGen  uint32
	queue    []int
	members  []int
	sub      []geom.Point
	wit      []*triEntry
	accepted []int
	accIDs   []int
	accPts   []geom.Point
}

func newBuildCtx() *buildCtx { return &buildCtx{tr: geom.NewTriangulator()} }

// Maintainer is the persistent successor to per-call spanner
// construction: it keys witness triangulations by exact (member-id,
// position) signatures and reuses them across check intervals, across
// witnesses, and across every node of a world (one Maintainer is shared
// per simulation; it is single-threaded like the event loop that owns
// it). Each query's answer is built from its view alone, so it never
// depends on what the Maintainer saw before.
//
// Correctness never depends on invalidation: a signature covers the exact
// positions that produced an entry, so changed inputs can only miss.
// Invalidation is hygiene — Observe feeds the freshest beaconed position
// per node, and a periodic sweep drops entries that reference superseded
// coordinates (once no longer queried; a node's stale 2-hop knowledge
// may lag the freshest beacon) or that have idled past cacheTTL.
type Maintainer struct {
	ctx *buildCtx // build scratch

	tris    map[uint64][]*triEntry
	lastPos map[int]geom.Point

	lastSweep float64
	prevSweep float64
	stats     SpannerStats
}

// NewMaintainer returns an empty cache.
func NewMaintainer() *Maintainer {
	return &Maintainer{
		ctx:     newBuildCtx(),
		tris:    make(map[uint64][]*triEntry),
		lastPos: make(map[int]geom.Point),
	}
}

// Stats returns the accumulated counters.
func (m *Maintainer) Stats() SpannerStats { return m.stats }

// Size returns the number of cached witness triangulations.
func (m *Maintainer) Size() (tris int) {
	for _, b := range m.tris {
		tris += len(b)
	}
	return
}

// Observe records the freshest directly-beaconed position of a node.
// Entries built from superseded coordinates become sweep candidates.
func (m *Maintainer) Observe(id int, pos geom.Point) {
	if last, ok := m.lastPos[id]; ok && last.Eq(pos) {
		return
	}
	m.lastPos[id] = pos
}

// Neighbors returns the global ids and positions of the accepted spanner
// neighbors of view's self node, in view order, per the requested variant
// (k applies to the LDTG only). now is simulated time, used for cache
// retention.
//
// The returned slices are scratch storage: callers may read them until
// the next Neighbors call on this Maintainer but must not modify or
// retain them (the routing loop reads them within one route check).
func (m *Maintainer) Neighbors(view *LocalView, variant Variant, k int, now float64) ([]int, []geom.Point, error) {
	start := time.Now()
	defer func() { m.stats.BuildTime += time.Since(start) }()
	m.stats.Queries++
	m.maybeSweep(now)

	var local []int
	var err error
	switch variant {
	case VariantGabriel:
		local = view.GabrielNeighbors()
	case VariantUDG:
		local = view.UDGNeighbors()
	default:
		local, err = m.ldtgNeighbors(view, k, now)
		if err != nil {
			return nil, nil, err
		}
	}
	c := m.ctx
	c.accIDs, c.accPts = c.accIDs[:0], c.accPts[:0]
	for _, li := range local {
		c.accIDs = append(c.accIDs, view.IDs[li])
		c.accPts = append(c.accPts, view.Pts[li])
	}
	return c.accIDs, c.accPts, nil
}

// ldtgNeighbors is the cached engine behind the paper's acceptance rule.
// It matches LDTGNeighbors semantically; witness triangulations are
// normalized (members sorted by global id, coincident coordinates
// coalesced) so permuted views and different witnesses map to the same
// cache entries. Unlike LDTGNeighbors it avoids geom.Graph for the view's
// unit-disk topology: adjacency lists and BFS buffers live on the
// Maintainer, which profiling shows matters as much as the triangulation
// itself once the mesh construction is cheap.
func (m *Maintainer) ldtgNeighbors(view *LocalView, k int, now float64) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("ldt: k must be ≥ 1, got %d", k)
	}
	c := m.ctx
	c.buildAdjacency(view)

	selfNbrs := c.adj[0] // ascending local indices
	witnesses := len(selfNbrs) + 1
	wit := c.wit[:0]
	for i := 0; i < witnesses; i++ {
		w := 0
		if i > 0 {
			w = selfNbrs[i-1]
		}
		e, err := m.triangulation(view, c.khop(w, k), now)
		if err != nil {
			c.wit = wit
			return nil, err
		}
		wit = append(wit, e)
	}
	c.wit = wit

	selfID := view.IDs[0]
	self := wit[0]
	accepted := c.accepted[:0]
	for _, nb := range selfNbrs {
		nbID := view.IDs[nb]
		if !self.hasEdge(selfID, nbID) {
			continue
		}
		ok := true
		for _, ww := range wit {
			if _, inS := ww.idx[selfID]; !inS {
				continue
			}
			if _, inN := ww.idx[nbID]; !inN {
				continue
			}
			if !ww.hasEdge(selfID, nbID) {
				ok = false
				break
			}
		}
		if ok {
			accepted = append(accepted, nb)
		}
	}
	c.accepted = accepted
	return accepted, nil
}

// buildAdjacency fills c.adj with the view's unit-disk adjacency lists
// (ascending local indices), reusing the backing arrays.
func (c *buildCtx) buildAdjacency(view *LocalView) {
	n := len(view.Pts)
	for len(c.adj) < n {
		c.adj = append(c.adj, nil)
	}
	for i := 0; i < n; i++ {
		c.adj[i] = c.adj[i][:0]
	}
	r2 := view.R * view.R
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if view.Pts[i].Dist2(view.Pts[j]) <= r2 {
				c.adj[i] = append(c.adj[i], j)
				c.adj[j] = append(c.adj[j], i)
			}
		}
	}
}

// khop returns the local indices within graph distance k of w over c.adj,
// including w, in scratch storage valid until the next khop call.
func (c *buildCtx) khop(w, k int) []int {
	n := len(c.adj)
	for len(c.seen) < n {
		c.seen = append(c.seen, 0)
	}
	c.seenGen++
	gen := c.seenGen
	c.members = c.members[:0]
	c.queue = c.queue[:0]
	c.seen[w] = gen
	c.members = append(c.members, w)
	c.queue = append(c.queue, w)
	for depth := 0; depth < k && len(c.queue) > 0; depth++ {
		next := len(c.members)
		for _, u := range c.queue {
			for _, v := range c.adj[u] {
				if c.seen[v] != gen {
					c.seen[v] = gen
					c.members = append(c.members, v)
				}
			}
		}
		c.queue = append(c.queue[:0], c.members[next:]...)
	}
	return c.members
}

// triangulation returns the Delaunay edge set over the positions of the
// given view members (local indices), from the cache when an entry with
// the same (id, position) set exists.
func (m *Maintainer) triangulation(view *LocalView, members []int, now float64) (*triEntry, error) {
	c := m.ctx
	// Normalize: members sorted by global id. Insertion sort instead of
	// sort.Slice: witness neighborhoods are small (tens of members),
	// global ids are unique (ties impossible), and the closure +
	// reflection swapper of sort.Slice would allocate on every
	// triangulation lookup — the routing loop's hottest call.
	c.order = append(c.order[:0], members...)
	for i := 1; i < len(c.order); i++ {
		li := c.order[i]
		key := view.IDs[li]
		j := i - 1
		for j >= 0 && view.IDs[c.order[j]] > key {
			c.order[j+1] = c.order[j]
			j--
		}
		c.order[j+1] = li
	}

	sig := sigMembers(view, c.order)
	for _, e := range m.tris[sig] {
		if e.matchesMembers(view, c.order) {
			if now > e.lastHit {
				e.lastHit = now
			}
			m.stats.TriHits++
			return e, nil
		}
	}
	m.stats.TriBuilds++

	ids := make([]int, len(c.order))
	pts := make([]geom.Point, len(c.order))
	idx := make(map[int]int, len(c.order))
	byCoord := make(map[geom.Point]int, len(c.order))
	c.sub = c.sub[:0]
	for i, li := range c.order {
		ids[i] = view.IDs[li]
		pts[i] = view.Pts[li]
		si, dup := byCoord[pts[i]]
		if !dup {
			si = len(c.sub)
			byCoord[pts[i]] = si
			c.sub = append(c.sub, pts[i])
		}
		idx[ids[i]] = si
	}
	edges, err := c.delaunayEdges(c.sub)
	if err != nil {
		return nil, err
	}
	e := &triEntry{ids: ids, pts: pts, edges: edges, idx: idx, lastHit: now}
	m.tris[sig] = append(m.tris[sig], e)
	return e, nil
}

// delaunayEdges triangulates sub (distinct points) and packs the edge set,
// preserving DelaunayGraph's degenerate semantics (n < 3 or collinear
// inputs connect in path order).
func (c *buildCtx) delaunayEdges(sub []geom.Point) (map[uint64]struct{}, error) {
	tri, err := c.tr.Triangulate(sub)
	if err != nil {
		return nil, err
	}
	if len(tri.Triangles) == 0 {
		// Degenerate: defer to the graph construction's path-order limit.
		g, err := c.tr.Graph(sub)
		if err != nil {
			return nil, err
		}
		edges := make(map[uint64]struct{})
		for _, e := range g.Edges() {
			edges[uint64(e[0])<<20|uint64(e[1])] = struct{}{}
		}
		return edges, nil
	}
	edges := make(map[uint64]struct{}, 3*len(tri.Triangles))
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		edges[uint64(u)<<20|uint64(v)] = struct{}{}
	}
	for _, t := range tri.Triangles {
		add(t.A, t.B)
		add(t.B, t.C)
		add(t.C, t.A)
	}
	return edges, nil
}

// maybeSweep evicts idle and superseded entries at most once per
// sweepEvery simulated seconds.
func (m *Maintainer) maybeSweep(now float64) {
	if now-m.lastSweep < sweepEvery {
		return
	}
	m.prevSweep, m.lastSweep = m.lastSweep, now
	for sig, bucket := range m.tris {
		keep := bucket[:0]
		for _, e := range bucket {
			if m.evictable(e, now) {
				m.stats.Evictions++
				continue
			}
			keep = append(keep, e)
		}
		if len(keep) == 0 {
			delete(m.tris, sig)
		} else {
			m.tris[sig] = keep
		}
	}
}

// evictable implements the retention policy: drop after cacheTTL idle
// seconds, or — once the entry went one full sweep without a hit — as
// soon as any member's recorded position is superseded by a fresher
// beacon (stale 2-hop knowledge keeps hot entries alive until the
// viewers catch up).
func (m *Maintainer) evictable(e *triEntry, now float64) bool {
	if now-e.lastHit > cacheTTL {
		return true
	}
	if e.lastHit >= m.prevSweep {
		return false
	}
	for i, id := range e.ids {
		if lp, ok := m.lastPos[id]; ok && !lp.Eq(e.pts[i]) {
			return true
		}
	}
	return false
}

func (e *triEntry) matchesMembers(view *LocalView, order []int) bool {
	if len(e.ids) != len(order) {
		return false
	}
	for i, li := range order {
		if e.ids[i] != view.IDs[li] || !e.pts[i].Eq(view.Pts[li]) {
			return false
		}
	}
	return true
}

// fnv1a64 constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime64
	return h
}

// sigMembers hashes the sorted (id, position-bits) member list.
func sigMembers(view *LocalView, order []int) uint64 {
	h := uint64(fnvOffset64)
	for _, li := range order {
		h = fnvMix(h, uint64(view.IDs[li])+1)
		h = fnvMix(h, math.Float64bits(view.Pts[li].X))
		h = fnvMix(h, math.Float64bits(view.Pts[li].Y))
	}
	return h
}
