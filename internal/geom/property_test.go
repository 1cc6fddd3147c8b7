package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// pointSetGenerator yields random distinct point sets for testing/quick,
// with coordinates snapped to a grid occasionally to exercise degenerate
// (collinear/cocircular) configurations.
func pointSetGenerator(minN, maxN int) func([]reflect.Value, *rand.Rand) {
	return func(args []reflect.Value, rng *rand.Rand) {
		n := minN + rng.Intn(maxN-minN+1)
		snap := rng.Intn(3) == 0 // every third set lives on a coarse grid
		seen := make(map[Point]struct{}, n)
		pts := make([]Point, 0, n)
		for len(pts) < n {
			var p Point
			if snap {
				p = Pt(float64(rng.Intn(12))*25, float64(rng.Intn(12))*25)
			} else {
				p = Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			pts = append(pts, p)
		}
		args[0] = reflect.ValueOf(pts)
	}
}

// Property: the Delaunay triangulation is planar and satisfies the
// empty-circumcircle condition on any distinct point set, including
// grid-degenerate ones.
func TestDelaunayPropertyQuick(t *testing.T) {
	f := func(pts []Point) bool {
		tri, err := Delaunay(pts)
		if err != nil {
			return false
		}
		for _, tr := range tri.Triangles {
			if Orient(pts[tr.A], pts[tr.B], pts[tr.C]) <= 0 {
				return false
			}
			for i, p := range pts {
				if i == tr.A || i == tr.B || i == tr.C {
					continue
				}
				if InCircle(pts[tr.A], pts[tr.B], pts[tr.C], p) > 0 {
					return false
				}
			}
		}
		g := NewGraph(len(pts))
		for _, e := range tri.Edges() {
			g.AddEdge(e[0], e[1])
		}
		return g.IsPlanarEmbedding(pts)
	}
	cfg := &quick.Config{MaxCount: 60, Values: pointSetGenerator(3, 24)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the convex hull contains every input point and its vertices
// are in strictly counterclockwise order.
func TestConvexHullPropertyQuick(t *testing.T) {
	f := func(pts []Point) bool {
		hull := ConvexHull(pts)
		if len(hull) >= 3 {
			for i := range hull {
				a := pts[hull[i]]
				b := pts[hull[(i+1)%len(hull)]]
				c := pts[hull[(i+2)%len(hull)]]
				if Orient(a, b, c) <= 0 {
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
	cfg := &quick.Config{MaxCount: 80, Values: pointSetGenerator(1, 30)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: KHop neighborhoods are monotone in k and bounded by the
// connected component.
func TestKHopMonotoneQuick(t *testing.T) {
	f := func(pts []Point) bool {
		g := UnitDiskGraph(pts, 200)
		prev := 0
		for k := 0; k <= 4; k++ {
			h := g.KHop(0, k)
			if len(h) < prev {
				return false
			}
			prev = len(h)
		}
		comp := g.Components()[componentOf(g, 0)]
		return prev <= len(comp)
	}
	cfg := &quick.Config{MaxCount: 60, Values: pointSetGenerator(2, 25)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func componentOf(g *Graph, v int) int {
	for i, c := range g.Components() {
		for _, u := range c {
			if u == v {
				return i
			}
		}
	}
	return -1
}

// Property: Delaunay edge lengths dominate the nearest-neighbor distance
// (every vertex keeps an edge to its nearest neighbor), and the
// triangulation's total edge count obeys the planar bound.
func TestDelaunayEdgeBoundsQuick(t *testing.T) {
	f := func(pts []Point) bool {
		g, err := DelaunayGraph(pts)
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
	cfg := &quick.Config{MaxCount: 50, Values: pointSetGenerator(2, 20)}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
