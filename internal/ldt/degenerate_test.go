package ldt_test

import (
	"math/rand"
	"slices"
	"testing"

	"glr/internal/geom"
	"glr/internal/ldt"
)

// gridPoints returns a cols×rows lattice at the given spacing.
func gridPoints(cols, rows int, spacing float64) []geom.Point {
	var pts []geom.Point
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			pts = append(pts, geom.Pt(float64(x)*spacing, float64(y)*spacing))
		}
	}
	return pts
}

// latticeRing returns the integer points on the circle of radius 25
// (20 points) or 5 (12 points), scaled by s: exactly cocircular.
func latticeRing(radius int, s float64) []geom.Point {
	var pts []geom.Point
	for x := -radius; x <= radius; x++ {
		for y := -radius; y <= radius; y++ {
			if x*x+y*y == radius*radius {
				pts = append(pts, geom.Pt(float64(x)*s, float64(y)*s))
			}
		}
	}
	return pts
}

// clampedPoints scatters n points around a w×h region and clamps them
// onto it, as GPS noise on advertised positions does: many points land
// exactly on the border lines, and corner points coincide.
func clampedPoints(rng *rand.Rand, n int, w, h, margin float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		x := rng.Float64()*(w+2*margin) - margin
		y := rng.Float64()*(h+2*margin) - margin
		pts[i] = geom.Pt(min(max(x, 0), w), min(max(y, 0), h))
	}
	return pts
}

// degenerateSet is a point set with exact ties and the transmission
// radii that make them matter.
type degenerateSet struct {
	name  string
	pts   []geom.Point
	radii []float64
}

// degenerateSets are point sets with exact ties: cocircular lattices and
// rings, duplicates, collinear runs and border-clamped positions.
func degenerateSets() []degenerateSet {
	rng := rand.New(rand.NewSource(41))
	dupGrid := gridPoints(4, 4, 40)
	dupGrid = append(dupGrid, dupGrid[0], dupGrid[5], dupGrid[5], dupGrid[10], dupGrid[15])
	randDup := ldt.RandomPoints(rng, 30, 400, 400)
	randDup = append(randDup, randDup[3], randDup[7], randDup[11])
	rings := append(latticeRing(25, 4), latticeRing(5, 10)...)
	var line, lineOff []geom.Point
	for _, x := range []float64{0, 7, 20, 21, 40, 55, 56, 90, 91, 130} {
		line = append(line, geom.Pt(x, 0))
		lineOff = append(lineOff, geom.Pt(x, x))
	}
	lineOff = append(lineOff, geom.Pt(30, 0), geom.Pt(0, 30), geom.Pt(60, 30), geom.Pt(30, 60), geom.Pt(45, 45))
	return []degenerateSet{
		{"grid6x6", gridPoints(6, 6, 40), []float64{60, 90, 130}},
		{"squares2x7", gridPoints(7, 2, 50), []float64{75, 110}},
		{"ring20", latticeRing(25, 4), []float64{80, 210}},
		{"ring20+center", append(latticeRing(25, 4), geom.Pt(0, 0)), []float64{105}},
		{"concentric-rings", append(rings, geom.Pt(0, 0)), []float64{60, 110}},
		{"grid-duplicates", dupGrid, []float64{60, 100}},
		{"random-duplicates", randDup, []float64{120}},
		{"collinear", line, []float64{35, 80, 1000}},
		{"collinear+off", lineOff, []float64{40, 70, 200}},
		{"border-clamped", clampedPoints(rng, 60, 300, 120, 25), []float64{60, 100}},
	}
}

// spannerUnion asks the Maintainer for the LDTG neighbors of every node
// of pts from its own two-hop view and returns the union of the
// accepted edges. Each answer must be invariant under permuting the view
// and under relabeling the ids.
func spannerUnion(t *testing.T, pts []geom.Point, r float64) *geom.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(pts))))
	m := ldt.NewMaintainer()
	union := geom.NewGraph(len(pts))
	sortedAnswer := func(view *ldt.LocalView) []int {
		ids, _ := m.Neighbors(view, ldt.VariantLDTG)
		ids = slices.Clone(ids)
		slices.Sort(ids)
		return ids
	}
	sigma := func(i int) int { return 5000 - 3*i }
	for u := range pts {
		view := buildView(t, pts, u, r, func(i int) int { return i })
		got := sortedAnswer(view)
		if perm := sortedAnswer(permutedView(t, view, rng)); !slices.Equal(perm, got) {
			t.Fatalf("node %d: permuted view accepted %v, original %v", u, perm, got)
		}
		rel := sortedAnswer(buildView(t, pts, u, r, sigma))
		for i, id := range rel {
			rel[i] = (5000 - id) / 3
		}
		slices.Sort(rel)
		if !slices.Equal(rel, got) {
			t.Fatalf("node %d: relabeled view accepted %v, original %v", u, rel, got)
		}
		for _, v := range got {
			union.AddEdge(u, v)
		}
	}
	return union
}

// TestSpannerDegenerateSets: on point sets full of exact ties, the union
// of every node's accepted edges and the whole graph BuildLDTG builds,
// both at depth K, are planar (face routing terminates only on a planar
// graph) and contain every Gabriel edge of positive length (so they stay
// connected). A coincident pair is a zero-length Gabriel edge that no
// spanner can draw; both constructions treat coincident points as one
// vertex.
func TestSpannerDegenerateSets(t *testing.T) {
	for _, set := range degenerateSets() {
		t.Run(set.name, func(t *testing.T) {
			for _, r := range set.radii {
				check := func(name string, g *geom.Graph) {
					if !g.IsPlanarEmbedding(set.pts) {
						t.Errorf("%s r=%v: accepted edges cross", name, r)
					}
					for _, e := range ldt.GabrielGraph(set.pts, r).Edges() {
						if set.pts[e[0]].Eq(set.pts[e[1]]) {
							continue
						}
						if !hasEdge(g, e[0], e[1]) {
							t.Errorf("%s r=%v: Gabriel edge %v missing", name, r, e)
						}
					}
				}
				check("union", spannerUnion(t, set.pts, r))
				check("BuildLDTG", ldt.BuildLDTG(set.pts, r))
			}
		})
	}
}

// TestSpannerCocircularSquareDiagonal pins the tie rule on four exactly
// cocircular points, where both diagonals pass the plain empty-circle
// test: the perturbation raises the lift of the lexicographically
// smallest corner the most, which pushes that corner outside the circle
// through the other three, so the kept diagonal is the one that avoids
// it. Every node must agree.
func TestSpannerCocircularSquareDiagonal(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pts      []geom.Point
		diagonal [2]int // the kept diagonal
	}{
		{"axis-square", []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(50, 50), geom.Pt(0, 50)}, [2]int{1, 3}},
		{"diamond", []geom.Point{geom.Pt(50, 0), geom.Pt(0, 50), geom.Pt(-50, 0), geom.Pt(0, -50)}, [2]int{1, 3}},
		{"lattice-ring", []geom.Point{geom.Pt(30, 40), geom.Pt(-40, 30), geom.Pt(-30, -40), geom.Pt(40, -30)}, [2]int{0, 2}},
	} {
		union := spannerUnion(t, tc.pts, 200)
		for u := range tc.pts {
			for v := u + 1; v < len(tc.pts); v++ {
				diag := (v-u)%2 == 0
				kept := [2]int{u, v} == tc.diagonal
				if want := !diag || kept; hasEdge(union, u, v) != want {
					t.Errorf("%s: edge %d-%d accepted=%v, want %v", tc.name, u, v, hasEdge(union, u, v), want)
				}
			}
		}
	}
}
