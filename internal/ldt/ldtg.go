// Package ldt implements the paper's §2.1 geometric machinery: the k-local
// Delaunay triangulation graph (k-LDTG), a planar geometric spanner built
// from k-hop neighborhood information only, plus the face-routing
// primitives (right-hand rule traversal) used to escape local minima on
// that planar graph.
//
// Two constructions are provided:
//
//   - BuildLDTG: the oracle construction over the full point set, used by
//     analysis, tests, and figures.
//   - LocalView.LDTGNeighbors: the construction a single node can perform
//     from its own distance-k neighborhood knowledge (beacon-fed). Because
//     our connectivity model is a unit-disk graph, known positions imply
//     known adjacency, so a node reconstructs the local topology from
//     positions alone. The GLR protocol runs the same rule through
//     Maintainer, which tests each edge by empty-circle scans instead of
//     triangulating.
package ldt

import (
	"fmt"
	"math"

	"glr/internal/geom"
)

// BuildLDTG computes the k-LDTG over pts with transmission radius r: an
// edge uv (necessarily a unit-disk edge) is accepted iff it appears in the
// Delaunay triangulation of Nk(u), of Nk(v), and of Nk(w) for every 1-hop
// neighbor w of u or v whose k-neighborhood contains both u and v. This is
// the paper's acceptance rule ("we do this to obtain a planar graph
// directly, avoiding the extra time incurred by the planar process"),
// applied symmetrically from both endpoints.
//
// The result is planar for k ≥ 2 and contains the Gabriel graph restricted
// to unit-disk edges, hence is connected whenever the unit-disk graph is.
func BuildLDTG(pts []geom.Point, r float64, k int) (*geom.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("ldt: k must be ≥ 1, got %d", k)
	}
	n := len(pts)
	udg := geom.UnitDiskGraph(pts, r)
	out := geom.NewGraph(n)

	// Per-node k-neighborhoods and local Delaunay triangulations.
	hood := make([][]int, n)
	localDT := make([]*geom.Graph, n)  // graph over local indices
	localIdx := make([]map[int]int, n) // global id -> local index
	for u := 0; u < n; u++ {
		hood[u] = udg.KHop(u, k)
		sub := make([]geom.Point, len(hood[u]))
		localIdx[u] = make(map[int]int, len(hood[u]))
		for i, g := range hood[u] {
			sub[i] = pts[g]
			localIdx[u][g] = i
		}
		dt, err := geom.DelaunayGraph(sub)
		if err != nil {
			return nil, fmt.Errorf("ldt: local Delaunay at node %d: %w", u, err)
		}
		localDT[u] = dt
	}

	inLocalDT := func(w, a, b int) (present, applicable bool) {
		ia, oka := localIdx[w][a]
		ib, okb := localIdx[w][b]
		if !oka || !okb {
			return false, false
		}
		return localDT[w].HasEdge(ia, ib), true
	}

	for _, e := range udg.Edges() {
		u, v := e[0], e[1]
		accept := true
		// The rule quantifies over w ∈ N1(u) (and symmetrically N1(v));
		// u and v themselves are covered since v ∈ N1(u) for a UDG edge.
		witnesses := append(udg.Neighbors(u), udg.Neighbors(v)...)
		witnesses = append(witnesses, u, v)
		for _, w := range witnesses {
			if present, applicable := inLocalDT(w, u, v); applicable && !present {
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
			if pts[i].Dist2(pts[j]) > r2 {
				continue
			}
			mid := geom.Midpoint(pts[i], pts[j])
			rad2 := pts[i].Dist2(pts[j]) / 4
			empty := true
			for m := range pts {
				if m == i || m == j {
					continue
				}
				if mid.Dist2(pts[m]) <= rad2 {
					empty = false
					break
				}
			}
			if empty {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// memberSignature hashes a sorted member-index list (FNV-1a) for the
// triangulation memo.
func memberSignature(members []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, m := range members {
		h ^= uint64(m) + 1
		h *= prime64
	}
	return h
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
	if len(ids) == 0 || ids[0] != selfID {
		return nil, fmt.Errorf("ldt: view must list self first")
	}
	if len(ids) != len(pts) {
		return nil, fmt.Errorf("ldt: ids/pts length mismatch %d != %d", len(ids), len(pts))
	}
	if !(r > 0) || math.IsInf(r, 1) {
		return nil, fmt.Errorf("ldt: radius must be positive and finite, got %v", r)
	}
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("ldt: position %d of the view is not finite: %v", i, p)
		}
	}
	return &LocalView{SelfID: selfID, IDs: ids, Pts: pts, R: r}, nil
}

// KnownGraph returns the unit-disk graph over the view's points (local
// indices; 0 is self).
func (v *LocalView) KnownGraph() *geom.Graph {
	return geom.UnitDiskGraph(v.Pts, v.R)
}

// GabrielNeighbors returns the local indices of this node's incident
// Gabriel-graph edges within the view (ablation alternative to the LDTG).
func (v *LocalView) GabrielNeighbors() []int {
	g := GabrielGraph(v.Pts, v.R)
	return g.Neighbors(0)
}

// UDGNeighbors returns the local indices of every known 1-hop neighbor
// (greedy routing with no planarization; ablation alternative).
func (v *LocalView) UDGNeighbors() []int {
	return v.KnownGraph().Neighbors(0)
}

// LDTGNeighbors computes, from this node's standpoint, the LDTG edges
// incident to self, applying the paper's acceptance rule over the
// knowledge horizon: uv accepted iff uv ∈ A(Nk(self)) and uv ∈ A(Nk(w))
// for every known 1-hop neighbor w whose (known) k-neighborhood contains
// both endpoints. It returns local indices of accepted neighbors, sorted,
// so the list follows the view's order.
//
// Boundary truncation (the node cannot see past its k-hop horizon) can
// make this differ slightly from the oracle BuildLDTG — exactly the
// imprecision a real deployment has; greedy forwarding only requires each
// node's own incident edge set.
//
// Every call triangulates the witness sets (with a per-call memo over
// shared witness neighborhoods); it is the oracle for Maintainer, which
// the protocol's hot path uses. Maintainer tests each candidate edge
// with an empty-circle scan of each witness set instead, and returns the
// same neighbors in the same order, mapped to global ids, whenever the
// witness sets have no four cocircular points (their Delaunay
// triangulations are then unique). On exact ties it follows a symbolic
// perturbation, while this function takes whichever triangulation the
// mesh builds.
func (v *LocalView) LDTGNeighbors(k int) ([]int, error) {
	return v.ldtgNeighbors(k, geom.DelaunayGraph)
}

// LDTGNeighborsRef is LDTGNeighbors over the reference (pre-mesh)
// Delaunay construction: the oracle the Maintainer is equivalence-tested
// against, list order included, and benchmarked against.
func (v *LocalView) LDTGNeighborsRef(k int) ([]int, error) {
	return v.ldtgNeighbors(k, geom.DelaunayGraphRef)
}

func (v *LocalView) ldtgNeighbors(k int, graphFn func([]geom.Point) (*geom.Graph, error)) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("ldt: k must be ≥ 1, got %d", k)
	}
	known := v.KnownGraph()

	// dtOf triangulates the positions of a member set, coalescing
	// coincident points (two nodes at identical coordinates share one
	// Delaunay vertex; a zero-length edge is then never "present", which
	// degrades gracefully). It returns the triangulation over sub-indices
	// and the member→sub-index mapping. Results are memoized by member
	// set: in dense neighborhoods many witnesses share the same k-hop
	// hood (often the entire view), making this the dominant cost.
	type dtResult struct {
		g   *geom.Graph
		idx map[int]int
	}
	memo := make(map[uint64]dtResult)
	dtOf := func(members []int) (*geom.Graph, map[int]int, error) {
		key := memberSignature(members)
		if r, ok := memo[key]; ok {
			return r.g, r.idx, nil
		}
		byCoord := make(map[geom.Point]int, len(members))
		idx := make(map[int]int, len(members))
		sub := make([]geom.Point, 0, len(members))
		for _, m := range members {
			p := v.Pts[m]
			si, dup := byCoord[p]
			if !dup {
				si = len(sub)
				byCoord[p] = si
				sub = append(sub, p)
			}
			idx[m] = si
		}
		g, err := graphFn(sub)
		if err != nil {
			return nil, nil, err
		}
		memo[key] = dtResult{g: g, idx: idx}
		return g, idx, nil
	}

	// Precompute each witness's k-neighborhood triangulation once. The
	// witnesses are self and self's 1-hop neighbors.
	witnesses := append([]int{0}, known.Neighbors(0)...)
	type witness struct {
		dt     *geom.Graph
		idx    map[int]int
		member map[int]bool
	}
	wit := make(map[int]witness, len(witnesses))
	for _, w := range witnesses {
		wh := known.KHop(w, k)
		dt, idx, err := dtOf(wh)
		if err != nil {
			return nil, err
		}
		member := make(map[int]bool, len(wh))
		for _, x := range wh {
			member[x] = true
		}
		wit[w] = witness{dt: dt, idx: idx, member: member}
	}

	self := wit[0]
	var accepted []int
	for _, nb := range known.Neighbors(0) {
		if !self.dt.HasEdge(self.idx[0], self.idx[nb]) {
			continue
		}
		ok := true
		for _, w := range witnesses {
			ww := wit[w]
			if !ww.member[0] || !ww.member[nb] {
				continue
			}
			if !ww.dt.HasEdge(ww.idx[0], ww.idx[nb]) {
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
