package geom

import (
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
