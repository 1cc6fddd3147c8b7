package ldt

import (
	"math"
	"math/rand"
	"testing"

	"glr/internal/geom"
)

func randomPoints(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, 0, n)
	seen := make(map[geom.Point]struct{}, n)
	for len(pts) < n {
		p := geom.Pt(rng.Float64()*w, rng.Float64()*h)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		pts = append(pts, p)
	}
	return pts
}

func TestBuildLDTGRejectsBadK(t *testing.T) {
	if _, err := BuildLDTG(nil, 100, 0); err == nil {
		t.Error("k=0 should be rejected")
	}
}

func TestLDTGSubgraphOfUDG(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(rng, 40, 1000, 1000)
		const r = 250
		g, err := BuildLDTG(pts, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range g.Edges() {
			if pts[e[0]].Dist(pts[e[1]]) > r {
				t.Fatalf("LDTG edge %v longer than radius", e)
			}
		}
	}
}

func TestLDTGPlanarK2(t *testing.T) {
	// Li–Calinescu–Wan: the k-localized Delaunay graph is planar for
	// k ≥ 2. This is the paper's central structural claim for the
	// routing graph.
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 15; trial++ {
		pts := randomPoints(rng, 35, 800, 800)
		for _, r := range []float64{150, 250, 400} {
			g, err := BuildLDTG(pts, r, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !g.IsPlanarEmbedding(pts) {
				t.Fatalf("2-LDTG not planar (trial %d, r=%v)", trial, r)
			}
		}
	}
}

func TestLDTGContainsGabrielGraph(t *testing.T) {
	// Gabriel edges have an empty diametral disk, so they survive every
	// local Delaunay test; GG∩UDG ⊆ LDTG gives connectivity.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(rng, 40, 1000, 1000)
		const r = 300
		g, err := BuildLDTG(pts, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		gg := GabrielGraph(pts, r)
		for _, e := range gg.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("Gabriel edge %v missing from LDTG", e)
			}
		}
	}
}

func TestLDTGConnectedWhenUDGConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	done := 0
	for trial := 0; done < 10 && trial < 200; trial++ {
		pts := randomPoints(rng, 50, 1000, 1000)
		const r = 260 // comfortably above the connectivity threshold
		if !geom.UnitDiskGraph(pts, r).Connected() {
			continue
		}
		done++
		g, err := BuildLDTG(pts, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatal("LDTG must stay connected when the UDG is connected")
		}
	}
	if done < 10 {
		t.Fatalf("only %d connected UDG trials generated", done)
	}
}

func TestLDTGSparseDenseTriangle(t *testing.T) {
	// Three mutually-in-range nodes: the full triangle survives (it is
	// its own Delaunay triangulation everywhere).
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8)}
	g, err := BuildLDTG(pts, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 3 {
		t.Errorf("triangle LDTG has %d edges, want 3", g.EdgeCount())
	}
}

func TestLDTGPrunesCrossingsOfDenseUDG(t *testing.T) {
	// Dense UDGs have many crossing edges; the LDTG must be much sparser
	// (≤ 3n−6 by planarity) while the UDG is quadratic-ish.
	rng := rand.New(rand.NewSource(35))
	pts := randomPoints(rng, 50, 500, 500)
	const r = 400
	udg := geom.UnitDiskGraph(pts, r)
	g, err := BuildLDTG(pts, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() > 3*len(pts)-6 {
		t.Errorf("LDTG edge count %d exceeds planar bound %d", g.EdgeCount(), 3*len(pts)-6)
	}
	if g.EdgeCount() >= udg.EdgeCount() {
		t.Errorf("LDTG (%d edges) should be sparser than dense UDG (%d)", g.EdgeCount(), udg.EdgeCount())
	}
}

func TestGabrielGraphBasic(t *testing.T) {
	// Square: sides are Gabriel edges; diagonals are not (each diagonal's
	// diametral circle contains the other two corners).
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}
	g := GabrielGraph(pts, 100)
	if g.EdgeCount() != 4 {
		t.Fatalf("square Gabriel graph has %d edges, want 4", g.EdgeCount())
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 3) {
		t.Error("diagonals must not be Gabriel edges")
	}
	// Radius restriction.
	g2 := GabrielGraph(pts, 5)
	if g2.EdgeCount() != 0 {
		t.Error("radius below side length should yield no edges")
	}
}

// Set refills a view in place: it accepts and rejects what
// NewLocalView does, leaves the view unchanged on a rejection, and a
// refill allocates nothing.
func TestLocalViewSet(t *testing.T) {
	ids := []int{4, 6}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	var v LocalView
	if err := v.Set(4, ids, pts, 10); err != nil {
		t.Fatalf("valid view rejected: %v", err)
	}
	want, _ := NewLocalView(4, ids, pts, 10)
	if v.SelfID != want.SelfID || v.R != want.R || &v.IDs[0] != &ids[0] || &v.Pts[0] != &pts[0] {
		t.Fatalf("Set filled %+v, want %+v over the caller's slices", v, *want)
	}
	bad := []struct {
		self int
		ids  []int
		pts  []geom.Point
		r    float64
	}{
		{5, ids, pts, 10},
		{4, []int{4}, pts, 10},
		{4, ids, pts, 0},
		{4, ids, pts, math.Inf(1)},
		{4, ids, []geom.Point{geom.Pt(0, 0), geom.Pt(math.NaN(), 0)}, 10},
	}
	for i, b := range bad {
		_, nerr := NewLocalView(b.self, b.ids, b.pts, b.r)
		if err := v.Set(b.self, b.ids, b.pts, b.r); err == nil || nerr == nil || err.Error() != nerr.Error() {
			t.Errorf("case %d: Set error %v, NewLocalView error %v; want the same rejection", i, err, nerr)
		}
		if v.SelfID != 4 || v.R != 10 || len(v.IDs) != 2 {
			t.Errorf("case %d: a rejected Set changed the view to %+v", i, v)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = v.Set(4, ids, pts, 10) }); allocs != 0 {
		t.Errorf("Set allocates %v times per refill, want 0", allocs)
	}
}

func TestNewLocalViewValidation(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if _, err := NewLocalView(5, []int{4, 6}, pts, 10); err == nil {
		t.Error("self-not-first should be rejected")
	}
	if _, err := NewLocalView(4, []int{4}, pts, 10); err == nil {
		t.Error("length mismatch should be rejected")
	}
	if _, err := NewLocalView(4, []int{4, 6}, pts, 0); err == nil {
		t.Error("zero radius should be rejected")
	}
	if _, err := NewLocalView(4, []int{4, 6}, pts, 10); err != nil {
		t.Errorf("valid view rejected: %v", err)
	}

	// A non-finite radius or coordinate is an error: the exact
	// predicates are defined over finite values only, and ±Inf once
	// panicked them.
	ids := []int{0, 1, 2, 3}
	good := []geom.Point{geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(20, 30), geom.Pt(40, 10)}
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name string
		last geom.Point // replaces good[3]
		r    float64
	}{
		{"inf-x-inf-radius", geom.Pt(inf, 10), inf},
		{"inf-radius", good[3], inf},
		{"neg-inf-radius", good[3], -inf},
		{"nan-radius", good[3], nan},
		{"inf-x", geom.Pt(inf, 10), 100},
		{"neg-inf-y", geom.Pt(10, -inf), 100},
		{"nan-x", geom.Pt(nan, 10), 100},
		{"nan-y", geom.Pt(10, nan), 100},
	} {
		if _, err := NewLocalView(0, ids, append(good[:3:3], tc.last), tc.r); err == nil {
			t.Errorf("%s: view accepted", tc.name)
		}
	}
}

func TestLocalLDTGMatchesOracleInterior(t *testing.T) {
	// For a node whose 2-hop horizon covers the whole network, the local
	// computation must agree exactly with the oracle construction.
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(rng, 15, 200, 200)
		const r = 300 // everyone within one hop of everyone
		oracle, err := BuildLDTG(pts, r, 2)
		if err != nil {
			t.Fatal(err)
		}
		for u := range pts {
			ids := []int{u}
			vpts := []geom.Point{pts[u]}
			for v := range pts {
				if v != u {
					ids = append(ids, v)
					vpts = append(vpts, pts[v])
				}
			}
			view, err := NewLocalView(u, ids, vpts, r)
			if err != nil {
				t.Fatal(err)
			}
			local, err := view.LDTGNeighbors(2)
			if err != nil {
				t.Fatal(err)
			}
			got := map[int]bool{}
			for _, li := range local {
				got[ids[li]] = true
			}
			want := map[int]bool{}
			for _, v := range oracle.Neighbors(u) {
				want[v] = true
			}
			if len(got) != len(want) {
				t.Fatalf("node %d: local %v vs oracle %v", u, got, want)
			}
			for v := range want {
				if !got[v] {
					t.Fatalf("node %d: oracle edge to %d missing locally", u, v)
				}
			}
		}
	}
}

func TestLocalLDTGNeighborsAreUDGNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	pts := randomPoints(rng, 30, 500, 500)
	const r = 150
	m := NewMaintainer()
	for u := range pts {
		_, nbrPts := m.Neighbors(buildView(t, pts, u, r, func(i int) int { return i }), VariantLDTG)
		for _, p := range nbrPts {
			if pts[u].Dist(p) > r {
				t.Fatalf("local LDTG proposed an out-of-range neighbor")
			}
		}
	}
}

func TestLocalLDTGHandlesCoincidentPoints(t *testing.T) {
	// Two nodes at identical coordinates must not break the construction.
	ids := []int{0, 1, 2, 3}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(5, 0), geom.Pt(2, 4)}
	view, err := NewLocalView(0, ids, pts, 10)
	if err != nil {
		t.Fatal(err)
	}
	nbrs, _ := NewMaintainer().Neighbors(view, VariantLDTG)
	if len(nbrs) == 0 {
		t.Error("expected at least one accepted neighbor")
	}
}

// TestLocalLDTGRejectsBadK: the oracles, the only constructions that
// take a hop depth, reject k < 1.
func TestLocalLDTGRejectsBadK(t *testing.T) {
	view, _ := NewLocalView(0, []int{0}, []geom.Point{geom.Pt(0, 0)}, 10)
	if _, err := view.LDTGNeighbors(0); err == nil {
		t.Error("LDTGNeighbors: k=0 should be rejected")
	}
	if _, err := BuildLDTG([]geom.Point{geom.Pt(0, 0)}, 10, 0); err == nil {
		t.Error("BuildLDTG: k=0 should be rejected")
	}
}
