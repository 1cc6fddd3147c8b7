package geom

import (
	"math/rand"
	"slices"
	"testing"
)

func TestDelaunaySquare(t *testing.T) {
	// Four corners of a square: two triangles, five edges (one diagonal).
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	tri, err := Delaunay(pts)
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
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	tri, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	assertDelaunayValid(t, tri)
}

// TestMeshDegenerateInputs checks the triangle mesh Delaunay builds on
// exact ties: a grid, collinear runs inside and beyond the hull, a point
// on an edge, and inputs too small or too flat to hold a triangle.
func TestMeshDegenerateInputs(t *testing.T) {
	cases := map[string][]Point{
		"grid3x3": {
			Pt(0, 0), Pt(25, 0), Pt(50, 0),
			Pt(0, 25), Pt(25, 25), Pt(50, 25),
			Pt(0, 50), Pt(25, 50), Pt(50, 50),
		},
		"square": {Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)},
		"collinear-run-then-apex": {
			Pt(0, 0), Pt(10, 0), Pt(2, 0), Pt(7, 0), Pt(4, 0), Pt(5, 8),
		},
		"collinear-beyond-hull": {
			Pt(0, 0), Pt(10, 0), Pt(5, 5), Pt(20, 0), Pt(-20, 0),
		},
		"point-on-edge": {Pt(0, 0), Pt(10, 0), Pt(5, 10), Pt(5, 0)},
		"all-collinear": {Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0)},
		"two-points":    {Pt(0, 0), Pt(1, 1)},
	}
	for name, pts := range cases {
		t.Run(name, func(t *testing.T) {
			tri, err := Delaunay(pts)
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
	base := []Point{Pt(0, 0), Pt(100, 0), Pt(200, 0), Pt(300, 0), Pt(400, 0)}
	for _, eps := range []float64{0, 1e-300, 1e-18, 1e-12, 5e-9} {
		for perturb := 0; perturb < len(base); perturb++ {
			pts := slices.Clone(base)
			pts[perturb].Y += eps
			tri, err := Delaunay(pts)
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
		pts  []Point
	}{
		{"empty", nil},
		{"single", []Point{Pt(1, 2)}},
		{"pair", []Point{Pt(0, 0), Pt(1, 0)}},
		{"collinear", []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tri, err := Delaunay(tt.pts)
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
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(0, 0)}
	if _, err := Delaunay(pts); err != ErrDuplicatePoint {
		t.Errorf("got err %v, want ErrDuplicatePoint", err)
	}
}

// TestMeshDuplicateRejected checks that a duplicate behind distinct points
// is still found, by Delaunay and by DelaunayGraph.
func TestMeshDuplicateRejected(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 1), Pt(0, 0), Pt(2, 0)}
	if _, err := Delaunay(pts); err != ErrDuplicatePoint {
		t.Errorf("Delaunay: got err %v, want ErrDuplicatePoint", err)
	}
	if _, err := DelaunayGraph(pts); err != ErrDuplicatePoint {
		t.Errorf("DelaunayGraph: got err %v, want ErrDuplicatePoint", err)
	}
}

func TestDelaunayGraphDegenerate(t *testing.T) {
	// Collinear points must be connected in path order (the DT limit).
	pts := []Point{Pt(3, 3), Pt(0, 0), Pt(2, 2), Pt(1, 1)}
	g, err := DelaunayGraph(pts)
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
	g2, err := DelaunayGraph([]Point{Pt(0, 0), Pt(5, 5)})
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
func assertDelaunayValid(t *testing.T, tri *Triangulation) {
	t.Helper()
	pts := tri.Points
	g := NewGraph(len(pts))
	for _, e := range tri.Edges() {
		g.AddEdge(e[0], e[1])
	}
	if !g.IsPlanarEmbedding(pts) {
		t.Fatalf("edges cross")
	}
	for _, tr := range tri.Triangles {
		if Orient(pts[tr.A], pts[tr.B], pts[tr.C]) <= 0 {
			t.Fatalf("triangle %v not CCW", tr)
		}
		for i, p := range pts {
			if i == tr.A || i == tr.B || i == tr.C {
				continue
			}
			if InCircle(pts[tr.A], pts[tr.B], pts[tr.C], p) > 0 {
				t.Fatalf("point %d strictly inside circumcircle of %v", i, tr)
			}
		}
	}
	if len(pts) >= 3 && !allCollinear(pts) {
		h := boundaryPointCount(pts)
		wantTriangles := 2*len(pts) - h - 2
		if len(tri.Triangles) != wantTriangles {
			t.Fatalf("got %d triangles, want %d (n=%d h=%d): triangulation does not cover hull",
				len(tri.Triangles), wantTriangles, len(pts), h)
		}
	}
}

// boundaryPointCount returns the number of input points lying on the convex
// hull boundary (hull vertices plus points collinear on hull edges) — the h
// in Euler's triangle-count relation T = 2n − h − 2.
func boundaryPointCount(pts []Point) int {
	hull := ConvexHull(pts)
	count := 0
	for _, p := range pts {
		for i := range hull {
			a := pts[hull[i]]
			b := pts[hull[(i+1)%len(hull)]]
			if PointOnSegment(p, a, b) {
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
		pts := randomPoints(rng, n, 1000, 1000)
		tri, err := Delaunay(pts)
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
		pts := make([]Point, 0, n)
		seen := map[Point]struct{}{}
		for len(pts) < n {
			p := Pt(500+rng.Float64(), 500+rng.Float64())
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			pts = append(pts, p)
		}
		tri, err := Delaunay(pts)
		if err != nil {
			t.Fatal(err)
		}
		assertDelaunayValid(t, tri)
	}
}

func TestDelaunayGridNearlyCocircular(t *testing.T) {
	// A perfect grid has many exactly-cocircular 4-point sets; the exact
	// predicates must keep the triangulation consistent.
	var pts []Point
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			pts = append(pts, Pt(float64(i), float64(j)))
		}
	}
	tri, err := Delaunay(pts)
	if err != nil {
		t.Fatal(err)
	}
	pts2 := tri.Points
	for _, tr := range tri.Triangles {
		if Orient(pts2[tr.A], pts2[tr.B], pts2[tr.C]) <= 0 {
			t.Fatalf("triangle %v not CCW", tr)
		}
		for i, p := range pts2 {
			if i == tr.A || i == tr.B || i == tr.C {
				continue
			}
			if InCircle(pts2[tr.A], pts2[tr.B], pts2[tr.C], p) > 0 {
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
		pts := randomPoints(rng, 30, 500, 500)
		g, err := DelaunayGraph(pts)
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
	pts := randomPoints(rng, 60, 1000, 1000)
	g, err := DelaunayGraph(pts)
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
