package geom

// Test helpers shared with the external geom_test package.
var (
	RandomPoints      = randomPoints
	PointSetGenerator = pointSetGenerator
)

// HasEdge reports whether the undirected edge uv is present.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}
