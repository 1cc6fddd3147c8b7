package geom

import "sort"

// Graph is an undirected graph over vertices 0..n-1 with deterministic,
// sorted adjacency lists. It is the common currency between the Delaunay
// construction, the unit-disk model, and the LDTG spanner.
type Graph struct {
	adj []map[int]struct{}
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph {
	adj := make([]map[int]struct{}, n)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	return &Graph{adj: adj}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// AddEdge inserts the undirected edge uv. Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
}

// HasEdge reports whether the undirected edge uv is present.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// Neighbors returns the neighbors of u in ascending order. The returned
// slice is freshly allocated; callers may mutate it.
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Edges returns all undirected edges as pairs (u, v) with u < v in
// deterministic sorted order.
func (g *Graph) Edges() [][2]int {
	var edges [][2]int
	for u := range g.adj {
		for v := range g.adj[u] {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for u := range g.adj {
		total += len(g.adj[u])
	}
	return total / 2
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.N())
	for u := range g.adj {
		for v := range g.adj[u] {
			c.adj[u][v] = struct{}{}
		}
	}
	return c
}

// Components returns the connected components of g, each sorted ascending,
// ordered by their smallest vertex.
func (g *Graph) Components() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether g has exactly one connected component covering
// all vertices (vacuously true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	return len(g.Components()) == 1
}

// KHop returns all vertices within graph distance k of u, including u
// itself, sorted ascending.
func (g *Graph) KHop(u, k int) []int {
	dist := map[int]int{u: 0}
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if dist[x] == k {
			continue
		}
		for _, v := range g.Neighbors(x) {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[x] + 1
				queue = append(queue, v)
			}
		}
	}
	out := make([]int, 0, len(dist))
	for v := range dist {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// IsPlanarEmbedding reports whether, with vertices embedded at pts, no two
// edges of g properly cross. Shared endpoints are allowed. O(E²) — intended
// for tests and small graphs.
func (g *Graph) IsPlanarEmbedding(pts []Point) bool {
	edges := g.Edges()
	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			a, b := pts[edges[i][0]], pts[edges[i][1]]
			c, d := pts[edges[j][0]], pts[edges[j][1]]
			if SegmentsProperlyIntersect(a, b, c, d) {
				return false
			}
		}
	}
	return true
}
