package ldt

import (
	"math"
	"math/rand"
	"testing"

	"glr/internal/geom"
)

func TestGreedyNeighbor(t *testing.T) {
	self := geom.Pt(0, 0)
	dst := geom.Pt(10, 0)
	tests := []struct {
		name string
		nbrs []geom.Point
		want int
	}{
		{"closest to dst wins", []geom.Point{geom.Pt(2, 0), geom.Pt(5, 0), geom.Pt(3, 3)}, 1},
		{"no closer neighbor", []geom.Point{geom.Pt(-5, 0), geom.Pt(0, 12)}, -1},
		{"no neighbors", nil, -1},
		{"equal distance not closer", []geom.Point{geom.Pt(0, 20)}, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GreedyNeighbor(self, tt.nbrs, dst); got != tt.want {
				t.Errorf("got %d, want %d", got, tt.want)
			}
		})
	}
}

func TestFirstCCW(t *testing.T) {
	center := geom.Pt(0, 0)
	nbrs := []geom.Point{geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(-1, 0), geom.Pt(0, -1)}
	tests := []struct {
		dir  float64
		want int
	}{
		{0, 1},            // from +x, first CCW is +y
		{math.Pi / 2, 2},  // from +y, first CCW is −x
		{math.Pi, 3},      // from −x, first CCW is −y
		{-math.Pi / 2, 0}, // from −y, first CCW is +x
		{math.Pi / 4, 1},  // between +x and +y: +y first
	}
	for _, tt := range tests {
		if got := firstCCW(center, tt.dir, nbrs); got != tt.want {
			t.Errorf("firstCCW(dir=%v) = %d, want %d", tt.dir, got, tt.want)
		}
	}
}

func TestFirstCCWGoBackLast(t *testing.T) {
	// A neighbor exactly in the ingress direction (the previous hop) is
	// chosen only if it is the sole option.
	center := geom.Pt(0, 0)
	if got := firstCCW(center, 0, []geom.Point{geom.Pt(5, 0)}); got != 0 {
		t.Errorf("sole neighbor must be returned, got %d", got)
	}
	nbrs := []geom.Point{geom.Pt(5, 0), geom.Pt(0, -5)}
	if got := firstCCW(center, 0, nbrs); got != 1 {
		t.Errorf("go-back should lose to any other neighbor, got %d", got)
	}
}

func TestProperIntersection(t *testing.T) {
	x, ok := properIntersection(geom.Pt(0, -1), geom.Pt(0, 1), geom.Pt(-1, 0), geom.Pt(1, 0))
	if !ok || x.Dist(geom.Pt(0, 0)) > 1e-12 {
		t.Errorf("crossing at origin expected, got %v ok=%v", x, ok)
	}
	if _, ok := properIntersection(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)); ok {
		t.Error("parallel segments must not intersect")
	}
	if _, ok := properIntersection(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 0), geom.Pt(2, 0)); ok {
		t.Error("shared endpoint is not a proper intersection")
	}
}

// walkFace runs face routing over a static planar graph until delivery,
// greedy exit, failure, or a step budget is exhausted. It returns the node
// where the walk ended and the decision that ended it.
func walkFace(t *testing.T, g *geom.Graph, pts []geom.Point, start, dst int, budget int) (int, FaceDecision) {
	t.Helper()
	var st FaceState
	cur := start
	for i := 0; i < budget; i++ {
		if cur == dst {
			return cur, FaceExitGreedy
		}
		nbrs := g.Neighbors(cur)
		nbrPts := make([]geom.Point, len(nbrs))
		for j, nb := range nbrs {
			nbrPts[j] = pts[nb]
		}
		next, dec := st.Step(cur, pts[cur], nbrs, nbrPts, pts[dst])
		switch dec {
		case FaceForward:
			cur = nbrs[next]
		case FaceExitGreedy, FaceFail:
			return cur, dec
		}
	}
	t.Fatalf("face walk exceeded %d steps", budget)
	return -1, FaceFail
}

func TestFaceRoutingEscapesSimpleVoid(t *testing.T) {
	// A "U" void: greedy from node 0 toward dst 4 is stuck (0's only
	// neighbors lead away). Face routing must escape around the void.
	//
	//     1 --- 2
	//     |     |
	//     0     3 --- 4(dst)
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(0, 10), geom.Pt(10, 10), geom.Pt(10, 0), geom.Pt(20, 0),
	}
	g := geom.NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	end, dec := walkFace(t, g, pts, 0, 4, 50)
	if dec == FaceFail {
		t.Fatalf("face routing failed; ended at %d", end)
	}
	// The walk must have reached a node strictly closer to dst than 0
	// (here eventually node 3 or 4).
	if pts[end].Dist(pts[4]) >= pts[0].Dist(pts[4]) {
		t.Errorf("no progress: ended at node %d", end)
	}
}

func TestFaceRoutingFullDeliveryOnPlanarSpanner(t *testing.T) {
	// End-to-end greedy+face (GFG) on random connected LDTGs: combined
	// forwarding must always reach the destination on a static connected
	// planar graph.
	rng := rand.New(rand.NewSource(40))
	trials := 0
	for trials < 12 {
		pts := RandomPoints(rng, 40, 1000, 1000)
		const r = 280
		if !geom.UnitDiskGraph(pts, r).Connected() {
			continue
		}
		trials++
		g := BuildLDTG(pts, r)
		src, dst := 0, len(pts)-1
		cur, prevMin := src, -1
		var st FaceState
		for step := 0; step < 500; step++ {
			if cur == dst {
				break
			}
			nbrs := g.Neighbors(cur)
			nbrPts := make([]geom.Point, len(nbrs))
			for j, nb := range nbrs {
				nbrPts[j] = pts[nb]
			}
			if !st.Active {
				if gi := GreedyNeighbor(pts[cur], nbrPts, pts[dst]); gi >= 0 {
					cur = nbrs[gi]
					continue
				}
				prevMin = cur
			}
			next, dec := st.Step(cur, pts[cur], nbrs, nbrPts, pts[dst])
			switch dec {
			case FaceForward:
				cur = nbrs[next]
			case FaceExitGreedy:
				// resume greedy on the next loop iteration
			case FaceFail:
				t.Fatalf("face routing failed on a connected planar graph (stuck near %d, entered at %d)", cur, prevMin)
			}
		}
		if cur != dst {
			t.Fatalf("GFG did not deliver within budget (trial %d)", trials)
		}
	}
}

func TestFaceStateEnterClear(t *testing.T) {
	var st FaceState
	st.Enter(geom.Pt(0, 0), geom.Pt(10, 0))
	if !st.Active || st.EntryDist != 10 {
		t.Errorf("Enter state wrong: %+v", st)
	}
	st.Clear()
	if st.Active {
		t.Error("Clear should deactivate")
	}
}

func TestFaceStepExitsWhenCloser(t *testing.T) {
	var st FaceState
	st.Enter(geom.Pt(0, 0), geom.Pt(10, 0))
	// Now at a node strictly closer than the entry point.
	_, dec := st.Step(7, geom.Pt(5, 0), []int{1}, []geom.Point{geom.Pt(0, 0)}, geom.Pt(10, 0))
	if dec != FaceExitGreedy {
		t.Errorf("decision = %v, want FaceExitGreedy", dec)
	}
	if st.Active {
		t.Error("state should clear on greedy exit")
	}
}

func TestFaceStepFailOnIsolatedNode(t *testing.T) {
	var st FaceState
	_, dec := st.Step(0, geom.Pt(0, 0), nil, nil, geom.Pt(10, 0))
	if dec != FaceFail {
		t.Errorf("decision = %v, want FaceFail for isolated node", dec)
	}
}

func TestFaceFailOnDisconnectedComponent(t *testing.T) {
	// Destination in a separate component, with the start node already
	// the closest point of its component: the face walk can never exit
	// to greedy, so loop detection must terminate it with FaceFail.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8), // triangle component
		geom.Pt(-50, 0), // unreachable destination; node 0 is closest
	}
	g := geom.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	_, dec := walkFace(t, g, pts, 0, 3, 100)
	if dec != FaceFail {
		t.Errorf("decision = %v, want FaceFail on disconnected destination", dec)
	}
}
