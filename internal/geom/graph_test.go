package geom

import (
	"math/rand"
	"reflect"
	"testing"
)

func pathGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 2) // self loop ignored
	if g.N() != 4 {
		t.Errorf("N = %d, want 4", g.N())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge 0-1 must be symmetric")
	}
	if g.HasEdge(2, 2) {
		t.Error("self loop should be ignored")
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2", g.EdgeCount())
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}
}

func TestGraphEdgesDeterministic(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(3, 1)
	g.AddEdge(0, 4)
	g.AddEdge(2, 0)
	want := [][2]int{{0, 2}, {0, 4}, {1, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestComponents(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	comps := g.Components()
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("Components = %v, want %v", comps, want)
	}
	if g.Connected() {
		t.Error("graph should not be connected")
	}
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	if !g.Connected() {
		t.Error("graph should now be connected")
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !NewGraph(0).Connected() {
		t.Error("empty graph is vacuously connected")
	}
	if !NewGraph(1).Connected() {
		t.Error("single-vertex graph is connected")
	}
}

func TestKHop(t *testing.T) {
	g := pathGraph(6)
	tests := []struct {
		u, k int
		want []int
	}{
		{0, 0, []int{0}},
		{0, 1, []int{0, 1}},
		{2, 1, []int{1, 2, 3}},
		{2, 2, []int{0, 1, 2, 3, 4}},
		{0, 10, []int{0, 1, 2, 3, 4, 5}},
	}
	for _, tt := range tests {
		if got := g.KHop(tt.u, tt.k); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("KHop(%d,%d) = %v, want %v", tt.u, tt.k, got, tt.want)
		}
	}
}

func TestIsPlanarEmbedding(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0)}
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.IsPlanarEmbedding(pts) {
		t.Error("crossing diagonals should not be planar")
	}
	g2 := NewGraph(4)
	g2.AddEdge(0, 2)
	g2.AddEdge(2, 1)
	g2.AddEdge(1, 3)
	g2.AddEdge(3, 0)
	if !g2.IsPlanarEmbedding(pts) {
		t.Error("boundary cycle should be planar")
	}
}

func TestUnitDiskGraph(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(3, 0), Pt(0, 0.5)}
	g := UnitDiskGraph(pts, 1.0)
	// d(1,3) = sqrt(1+0.25) ≈ 1.118 > 1, so nodes 1 and 3 are not linked.
	wantEdges := [][2]int{{0, 1}, {0, 3}}
	if got := g.Edges(); !reflect.DeepEqual(got, wantEdges) {
		t.Errorf("UDG edges = %v, want %v", got, wantEdges)
	}
	// Exactly at range is connected (closed ball).
	g2 := UnitDiskGraph([]Point{Pt(0, 0), Pt(2, 0)}, 2.0)
	if !g2.HasEdge(0, 1) {
		t.Error("distance exactly r must be connected")
	}
}

func TestUnitDiskMonotoneInRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 50, 1000, 1000)
	prev := -1
	for _, r := range []float64{50, 100, 150, 200, 250, 300} {
		g := UnitDiskGraph(pts, r)
		if g.EdgeCount() < prev {
			t.Fatalf("edge count must be nondecreasing in radius")
		}
		prev = g.EdgeCount()
	}
}

func TestConnectivityThreshold(t *testing.T) {
	// For the paper's strip (1500×300 m) and 50 nodes, the threshold with
	// s=10 is ≈ 133 m: 150–250 m ranges exceed it (single copy), 50–100 m
	// are below (multi copy). This is the pivotal constant of Algorithm 1.
	r := ConnectivityThreshold(50, 1500*300, 10)
	if r < 120 || r > 145 {
		t.Errorf("threshold = %.1f m, want ≈133 m", r)
	}
	if ConnectivityThreshold(1, 100, 10) != 0 {
		t.Error("n≤1 should give 0")
	}
	if ConnectivityThreshold(50, -1, 10) != 0 {
		t.Error("nonpositive area should give 0")
	}
	if ConnectivityThreshold(50, 100, 1) != 0 {
		t.Error("s≤1 should give 0")
	}
}

func TestConnectivityThresholdPredictsConnectivity(t *testing.T) {
	// Statistical sanity check: at 1.5×threshold nearly every random
	// topology is connected; at 0.4×threshold almost none are.
	rng := rand.New(rand.NewSource(10))
	const n, w, h, trials = 50, 1000.0, 1000.0, 40
	rstar := ConnectivityThreshold(n, w*h, 10)
	connAt := func(r float64) int {
		count := 0
		for i := 0; i < trials; i++ {
			pts := randomPoints(rng, n, w, h)
			if UnitDiskGraph(pts, r).Connected() {
				count++
			}
		}
		return count
	}
	if got := connAt(1.5 * rstar); got < trials*3/4 {
		t.Errorf("at 1.5·r* only %d/%d connected", got, trials)
	}
	if got := connAt(0.4 * rstar); got > trials/4 {
		t.Errorf("at 0.4·r* %d/%d connected — too many", got, trials)
	}
}
