// The tests in this file check the reference triangulation and convex
// hull of internal/oracle against this package's predicates: the LDTG
// tests trust those oracles only as far as these properties hold.
package geom_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"glr/internal/geom"
	"glr/internal/oracle"
)

func TestDelaunaySquare(t *testing.T) {
	// Four corners of a square: two triangles, five edges (one diagonal).
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	tri, err := oracle.Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tri.Triangles) != 2 {
		t.Fatalf("got %d triangles, want 2", len(tri.Triangles))
	}
	if got := len(tri.Edges()); got != 5 {
		t.Fatalf("got %d edges, want 5", got)
	}
}

func TestDelaunayCocircularSquareIsValid(t *testing.T) {
	// All four square corners are cocircular; either diagonal is a valid
	// Delaunay triangulation. Verify the result is a triangulation at all
	// and satisfies the (non-strict) empty-circle property.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)}
	tri, err := oracle.Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	assertDelaunayValid(t, tri)
}

// TestMeshDegenerateInputs checks the triangle mesh Delaunay builds on
// exact ties: a grid, collinear runs inside and beyond the hull, a point
// on an edge, and inputs too small or too flat to hold a triangle.
func TestMeshDegenerateInputs(t *testing.T) {
	cases := map[string][]geom.Point{
		"grid3x3": {
			geom.Pt(0, 0), geom.Pt(25, 0), geom.Pt(50, 0),
			geom.Pt(0, 25), geom.Pt(25, 25), geom.Pt(50, 25),
			geom.Pt(0, 50), geom.Pt(25, 50), geom.Pt(50, 50),
		},
		"square": {geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)},
		"collinear-run-then-apex": {
			geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(2, 0), geom.Pt(7, 0), geom.Pt(4, 0), geom.Pt(5, 8),
		},
		"collinear-beyond-hull": {
			geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 5), geom.Pt(20, 0), geom.Pt(-20, 0),
		},
		"point-on-edge": {geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 10), geom.Pt(5, 0)},
		"all-collinear": {geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)},
		"two-points":    {geom.Pt(0, 0), geom.Pt(1, 1)},
	}
	for name, pts := range cases {
		t.Run(name, func(t *testing.T) {
			tri, err := oracle.Delaunay(pts)
			if err != nil {
				t.Fatal(err)
			}
			assertDelaunayValid(t, tri)
		})
	}
}

// TestSeedSearchGuardNearCollinear is the regression test for the seed
// scan in Delaunay: ε-perturbed collinear inputs must neither panic nor
// index past the slice, whichever side of the collinearity test the exact
// predicates land on, and must still produce a valid triangulation (or
// the degenerate empty one).
func TestSeedSearchGuardNearCollinear(t *testing.T) {
	base := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(200, 0), geom.Pt(300, 0), geom.Pt(400, 0)}
	for _, eps := range []float64{0, 1e-300, 1e-18, 1e-12, 5e-9} {
		for perturb := 0; perturb < len(base); perturb++ {
			pts := slices.Clone(base)
			pts[perturb].Y += eps
			tri, err := oracle.Delaunay(pts)
			if err != nil {
				t.Fatalf("eps=%g@%d: %v", eps, perturb, err)
			}
			if eps == 0 && len(tri.Triangles) != 0 {
				t.Fatalf("eps=0@%d: collinear input produced triangles", perturb)
			}
			assertDelaunayValid(t, tri)
		}
	}
}

func TestDelaunayDegenerate(t *testing.T) {
	tests := []struct {
		name string
		pts  []geom.Point
	}{
		{"empty", nil},
		{"single", []geom.Point{geom.Pt(1, 2)}},
		{"pair", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}},
		{"collinear", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tri, err := oracle.Delaunay(tt.pts)
			if err != nil {
				t.Fatal(err)
			}
			if len(tri.Triangles) != 0 {
				t.Errorf("degenerate input should give no triangles, got %d", len(tri.Triangles))
			}
		})
	}
}

func TestDelaunayDuplicateDetection(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 0)}
	if _, err := oracle.Delaunay(pts); err != oracle.ErrDuplicatePoint {
		t.Errorf("got err %v, want oracle.ErrDuplicatePoint", err)
	}
}

// TestMeshDuplicateRejected checks that a duplicate behind distinct points
// is still found, by Delaunay and by DelaunayGraph.
func TestMeshDuplicateRejected(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0, 0), geom.Pt(2, 0)}
	if _, err := oracle.Delaunay(pts); err != oracle.ErrDuplicatePoint {
		t.Errorf("Delaunay: got err %v, want oracle.ErrDuplicatePoint", err)
	}
	if _, err := oracle.DelaunayGraph(pts); err != oracle.ErrDuplicatePoint {
		t.Errorf("DelaunayGraph: got err %v, want oracle.ErrDuplicatePoint", err)
	}
}

func TestDelaunayGraphDegenerate(t *testing.T) {
	// Collinear points must be connected in path order (the DT limit).
	pts := []geom.Point{geom.Pt(3, 3), geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(1, 1)}
	g, err := oracle.DelaunayGraph(pts)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := [][2]int{{0, 2}, {1, 3}, {2, 3}}
	got := g.Edges()
	if len(got) != len(wantEdges) {
		t.Fatalf("got edges %v, want %v", got, wantEdges)
	}
	for i, e := range wantEdges {
		if got[i] != e {
			t.Fatalf("got edges %v, want %v", got, wantEdges)
		}
	}
	// Two points.
	g2, err := oracle.DelaunayGraph([]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 1) {
		t.Error("two-point Delaunay graph must connect the pair")
	}
}

// assertDelaunayValid checks the defining properties on small inputs:
// every triangle is CCW, no point lies strictly inside any circumcircle,
// the edges do not cross, and the triangulation covers the convex hull
// (checked via Euler's relation for triangulations of point sets:
// T = 2n − h − 2).
func assertDelaunayValid(t *testing.T, tri *oracle.Triangulation) {
	t.Helper()
	pts := tri.Points
	g := geom.NewGraph(len(pts))
	for _, e := range tri.Edges() {
		g.AddEdge(e[0], e[1])
	}
	if !g.IsPlanarEmbedding(pts) {
		t.Fatalf("edges cross")
	}
	for _, tr := range tri.Triangles {
		if geom.Orient(pts[tr.A], pts[tr.B], pts[tr.C]) <= 0 {
			t.Fatalf("triangle %v not CCW", tr)
		}
		for i, p := range pts {
			if i == tr.A || i == tr.B || i == tr.C {
				continue
			}
			if geom.InCircle(pts[tr.A], pts[tr.B], pts[tr.C], p) > 0 {
				t.Fatalf("point %d strictly inside circumcircle of %v", i, tr)
			}
		}
	}
	if len(pts) >= 3 && !collinear(pts) {
		h := boundaryPointCount(pts)
		wantTriangles := 2*len(pts) - h - 2
		if len(tri.Triangles) != wantTriangles {
			t.Fatalf("got %d triangles, want %d (n=%d h=%d): triangulation does not cover hull",
				len(tri.Triangles), wantTriangles, len(pts), h)
		}
	}
}

// collinear reports whether every point lies on the line through the
// first two.
func collinear(pts []geom.Point) bool {
	for _, p := range pts[2:] {
		if geom.Orient(pts[0], pts[1], p) != 0 {
			return false
		}
	}
	return true
}

// boundaryPointCount returns the number of input points lying on the convex
// hull boundary (hull vertices plus points collinear on hull edges) — the h
// in Euler's triangle-count relation T = 2n − h − 2.
func boundaryPointCount(pts []geom.Point) int {
	hull := oracle.ConvexHull(pts)
	count := 0
	for _, p := range pts {
		for i := range hull {
			a := pts[hull[i]]
			b := pts[hull[(i+1)%len(hull)]]
			if geom.PointOnSegment(p, a, b) {
				count++
				break
			}
		}
	}
	return count
}

func TestDelaunayRandomValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(40)
		pts := geom.RandomPoints(rng, n, 1000, 1000)
		tri, err := oracle.Delaunay(pts)
		if err != nil {
			t.Fatal(err)
		}
		assertDelaunayValid(t, tri)
	}
}

func TestDelaunayClusteredValid(t *testing.T) {
	// Clustered points stress the in-circle predicate with nearly
	// cocircular configurations.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(20)
		pts := make([]geom.Point, 0, n)
		seen := map[geom.Point]struct{}{}
		for len(pts) < n {
			p := geom.Pt(500+rng.Float64(), 500+rng.Float64())
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			pts = append(pts, p)
		}
		tri, err := oracle.Delaunay(pts)
		if err != nil {
			t.Fatal(err)
		}
		assertDelaunayValid(t, tri)
	}
}

func TestDelaunayGridNearlyCocircular(t *testing.T) {
	// A perfect grid has many exactly-cocircular 4-point sets; the exact
	// predicates must keep the triangulation consistent.
	var pts []geom.Point
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			pts = append(pts, geom.Pt(float64(i), float64(j)))
		}
	}
	tri, err := oracle.Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	pts2 := tri.Points
	for _, tr := range tri.Triangles {
		if geom.Orient(pts2[tr.A], pts2[tr.B], pts2[tr.C]) <= 0 {
			t.Fatalf("triangle %v not CCW", tr)
		}
		for i, p := range pts2 {
			if i == tr.A || i == tr.B || i == tr.C {
				continue
			}
			if geom.InCircle(pts2[tr.A], pts2[tr.B], pts2[tr.C], p) > 0 {
				t.Fatalf("grid: point %d strictly inside circumcircle of %v", i, tr)
			}
		}
	}
	// 5×5 grid: 16 points on the hull boundary ⇒ T = 2·25 − 16 − 2 = 32.
	h := boundaryPointCount(pts)
	want := 2*len(pts) - h - 2
	if h != 16 || want != 32 {
		t.Fatalf("boundary point count = %d (want 16)", h)
	}
	if len(tri.Triangles) != want {
		t.Fatalf("grid triangulation has %d triangles, want %d", len(tri.Triangles), want)
	}
}

func TestDelaunayGraphPlanar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		pts := geom.RandomPoints(rng, 30, 500, 500)
		g, err := oracle.DelaunayGraph(pts)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsPlanarEmbedding(pts) {
			t.Fatal("Delaunay graph must be planar")
		}
		if !g.Connected() {
			t.Fatal("Delaunay graph must be connected")
		}
	}
}

func TestDelaunayContainsNearestNeighborEdges(t *testing.T) {
	// The nearest-neighbor graph is a subgraph of the Delaunay
	// triangulation — a classical property, good end-to-end check.
	rng := rand.New(rand.NewSource(7))
	pts := geom.RandomPoints(rng, 60, 1000, 1000)
	g, err := oracle.DelaunayGraph(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		best, bestD := -1, 0.0
		for j := range pts {
			if i == j {
				continue
			}
			d := pts[i].Dist2(pts[j])
			if best == -1 || d < bestD {
				best, bestD = j, d
			}
		}
		if !g.HasEdge(i, best) {
			t.Fatalf("nearest-neighbor edge (%d,%d) missing from Delaunay graph", i, best)
		}
	}
}

// Property: the Delaunay triangulation is planar and satisfies the
// empty-circumcircle condition on any distinct point set, including
// grid-degenerate ones.
func TestDelaunayPropertyQuick(t *testing.T) {
	f := func(pts []geom.Point) bool {
		tri, err := oracle.Delaunay(pts)
		if err != nil {
			return false
		}
		for _, tr := range tri.Triangles {
			if geom.Orient(pts[tr.A], pts[tr.B], pts[tr.C]) <= 0 {
				return false
			}
			for i, p := range pts {
				if i == tr.A || i == tr.B || i == tr.C {
					continue
				}
				if geom.InCircle(pts[tr.A], pts[tr.B], pts[tr.C], p) > 0 {
					return false
				}
			}
		}
		g := geom.NewGraph(len(pts))
		for _, e := range tri.Edges() {
			g.AddEdge(e[0], e[1])
		}
		return g.IsPlanarEmbedding(pts)
	}
	cfg := &quick.Config{MaxCount: 60, Values: geom.PointSetGenerator(3, 24)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Delaunay edge lengths dominate the nearest-neighbor distance
// (every vertex keeps an edge to its nearest neighbor), and the
// triangulation's total edge count obeys the planar bound.
func TestDelaunayEdgeBoundsQuick(t *testing.T) {
	f := func(pts []geom.Point) bool {
		g, err := oracle.DelaunayGraph(pts)
		if err != nil {
			return false
		}
		if g.EdgeCount() > 3*len(pts)-6 && len(pts) >= 3 {
			return false
		}
		for i := range pts {
			if len(pts) < 2 {
				break
			}
			best, bestD := -1, math.Inf(1)
			for j := range pts {
				if i == j {
					continue
				}
				if d := pts[i].Dist2(pts[j]); d < bestD {
					best, bestD = j, d
				}
			}
			// Nearest-neighbor edges belong to every Delaunay
			// triangulation except in exact-tie degeneracies; accept
			// either the edge or a tie.
			if !g.HasEdge(i, best) {
				ties := 0
				for j := range pts {
					if j != i && pts[i].Dist2(pts[j]) == bestD {
						ties++
					}
				}
				if ties <= 1 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Values: geom.PointSetGenerator(2, 20)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConvexHull(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2), geom.Pt(1, 1), geom.Pt(1, 0)}
	hull := oracle.ConvexHull(pts)
	want := []int{0, 1, 2, 3} // CCW from lexicographic min; interior and edge points excluded
	if !reflect.DeepEqual(hull, want) {
		t.Errorf("hull = %v, want %v", hull, want)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if got := oracle.ConvexHull(nil); len(got) != 0 {
		t.Errorf("empty hull = %v", got)
	}
	if got := oracle.ConvexHull([]geom.Point{geom.Pt(1, 1)}); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("single hull = %v", got)
	}
	got := oracle.ConvexHull([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 2)})
	if len(got) != 2 {
		t.Errorf("collinear hull = %v, want two extreme points", got)
	}
	// Duplicates collapse.
	got = oracle.ConvexHull([]geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(1, 0)})
	if len(got) != 2 {
		t.Errorf("duplicate hull = %v, want 2 points", got)
	}
}

// Property: the convex hull contains every input point and its vertices
// are in strictly counterclockwise order.
func TestConvexHullPropertyQuick(t *testing.T) {
	f := func(pts []geom.Point) bool {
		hull := oracle.ConvexHull(pts)
		if len(hull) >= 3 {
			for i := range hull {
				a := pts[hull[i]]
				b := pts[hull[(i+1)%len(hull)]]
				c := pts[hull[(i+2)%len(hull)]]
				if geom.Orient(a, b, c) <= 0 {
					return false
				}
			}
		}
		for _, p := range pts {
			if !insideHull(pts, hull, p) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Values: geom.PointSetGenerator(1, 30)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// insideHull reports whether p lies in the closed convex polygon whose
// vertices pts[hull[i]] are in counterclockwise order, or, for a hull of
// one or two points, on that point or segment.
func insideHull(pts []geom.Point, hull []int, p geom.Point) bool {
	switch len(hull) {
	case 1:
		return p.Eq(pts[hull[0]])
	case 2:
		return geom.PointOnSegment(p, pts[hull[0]], pts[hull[1]])
	}
	for i := range hull {
		if geom.Orient(pts[hull[i]], pts[hull[(i+1)%len(hull)]], p) < 0 {
			return false
		}
	}
	return true
}

func TestHullContainsAllPointsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		pts := geom.RandomPoints(rng, 40, 100, 100)
		hull := oracle.ConvexHull(pts)
		for _, p := range pts {
			if !insideHull(pts, hull, p) {
				t.Fatalf("hull must contain its own points: %v", p)
			}
		}
	}
}
