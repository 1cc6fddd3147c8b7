package ldt_test

import (
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"glr/internal/geom"
	"glr/internal/ldt"
	"glr/internal/oracle"
)

// newView returns a view filled by Set, or Set's error.
func newView(self int, ids []int, pts []geom.Point, r float64) (*ldt.LocalView, error) {
	v := new(ldt.LocalView)
	if err := v.Set(self, ids, pts, r); err != nil {
		return nil, err
	}
	return v, nil
}

// buildView assembles the 2-hop view of node self over pts with arbitrary
// global ids supplied by label.
func buildView(t *testing.T, pts []geom.Point, self int, r float64, label func(int) int) *ldt.LocalView {
	t.Helper()
	udg := geom.UnitDiskGraph(pts, r)
	ids := []int{label(self)}
	vpts := []geom.Point{pts[self]}
	for _, v := range udg.KHop(self, 2) {
		if v != self {
			ids = append(ids, label(v))
			vpts = append(vpts, pts[v])
		}
	}
	view, err := newView(label(self), ids, vpts, r)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// viewIDs maps local acceptance indices to global ids, in view order.
func viewIDs(view *ldt.LocalView, local []int) []int {
	out := make([]int, len(local))
	for i, li := range local {
		out[i] = view.IDs[li]
	}
	return out
}

// acceptedIDs maps local acceptance indices to sorted global ids.
func acceptedIDs(view *ldt.LocalView, local []int) []int {
	out := viewIDs(view, local)
	sort.Ints(out)
	return out
}

// referenceNeighbors is the from-scratch oracle for a Maintainer query:
// the triangulating LDTGNeighbors for the LDTG, and the whole-view
// Gabriel and unit-disk graphs for the other variants, mapped to global
// ids in view order.
func referenceNeighbors(t *testing.T, view *ldt.LocalView, variant ldt.Variant, k int) []int {
	t.Helper()
	var local []int
	switch variant {
	case ldt.VariantGabriel:
		local = oracle.GabrielNeighbors(view)
	case ldt.VariantUDG:
		local = oracle.UDGNeighbors(view)
	default:
		var err error
		if local, err = oracle.LDTGNeighbors(view, k); err != nil {
			t.Fatal(err)
		}
	}
	return viewIDs(view, local)
}

// permutedView returns view with the points after self shuffled: the same
// query in a different order, which must accept the same neighbors.
func permutedView(t *testing.T, view *ldt.LocalView, rng *rand.Rand) *ldt.LocalView {
	t.Helper()
	ids := []int{view.IDs[0]}
	pts := []geom.Point{view.Pts[0]}
	for _, j := range rng.Perm(len(view.IDs) - 1) {
		ids = append(ids, view.IDs[j+1])
		pts = append(pts, view.Pts[j+1])
	}
	pv, err := newView(view.SelfID, ids, pts, view.R)
	if err != nil {
		t.Fatal(err)
	}
	return pv
}

// TestMaintainerMatchesFromScratch: across evolving random topologies the
// Maintainer's per-edge tests must return exactly the accepted neighbors
// of the from-scratch oracles (the triangulating LDTGNeighbors for the
// LDTG), in the same view order, for every variant, on each view and
// then on a permuted copy of it. Routing reads the list in order, so an
// answer that kept the order of an earlier, differently ordered view is a
// defect.
func TestMaintainerMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := ldt.NewMaintainer()
	const r = 250
	pts := ldt.RandomPoints(rng, 40, 900, 900)
	for epoch := 0; epoch < 12; epoch++ {
		// Random-walk a subset of nodes between epochs so some witness
		// neighborhoods stay identical and some change.
		for i := range pts {
			if rng.Intn(3) == 0 {
				pts[i].X += rng.Float64()*40 - 20
				pts[i].Y += rng.Float64()*40 - 20
			}
		}
		for self := 0; self < len(pts); self += 3 {
			base := buildView(t, pts, self, r, func(i int) int { return i })
			for _, view := range []*ldt.LocalView{base, permutedView(t, base, rng)} {
				for _, variant := range []ldt.Variant{ldt.VariantLDTG, ldt.VariantGabriel, ldt.VariantUDG} {
					gotIDs, gotPts := m.Neighbors(view, variant)
					if want := referenceNeighbors(t, view, variant, ldt.K); !slices.Equal(gotIDs, want) {
						t.Fatalf("epoch %d self %d variant %d: maintainer %v != reference %v",
							epoch, self, variant, gotIDs, want)
					}
					for i, id := range gotIDs {
						li := -1
						for j, vid := range view.IDs {
							if vid == id {
								li = j
								break
							}
						}
						if li < 0 || !gotPts[i].Eq(view.Pts[li]) {
							t.Fatalf("epoch %d self %d: returned position for %d does not match the view", epoch, self, id)
						}
					}
				}
			}
		}
	}
	if st := m.Stats(); st.Queries == 0 {
		t.Errorf("stats not collected: %+v", st)
	}
}

// beaconView assembles self's view as beacons deliver it: self and its
// neighbors at their current positions cur, each neighbor followed by the
// neighbors it advertised one beacon earlier at their positions old then,
// in the order dtn.NeighborTable.AppendTwoHop emits them. Moved points
// put some of the view beyond two hops of self in the view's own
// unit-disk graph.
func beaconView(t *testing.T, cur, old []geom.Point, self int, r float64) *ldt.LocalView {
	t.Helper()
	now, then := geom.UnitDiskGraph(cur, r), geom.UnitDiskGraph(old, r)
	ids := []int{self}
	pts := []geom.Point{cur[self]}
	seen := map[int]bool{self: true}
	for _, w := range now.Neighbors(self) {
		if !seen[w] {
			seen[w] = true
			ids = append(ids, w)
			pts = append(pts, cur[w])
		}
		for _, x := range then.Neighbors(w) {
			if !seen[x] {
				seen[x] = true
				ids = append(ids, x)
				pts = append(pts, old[x])
			}
		}
	}
	view, err := newView(self, ids, pts, r)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// extraRejects returns self's neighbors in view whose edge with self is
// Delaunay in self's K-hop set but not in its (K+1)-hop set: the edges
// the Maintainer decides one witness set at a time.
func extraRejects(view *ldt.LocalView) []int {
	g := oracle.KnownGraph(view)
	inner, all := g.KHop(0, ldt.K), g.KHop(0, ldt.K+1)
	var out []int
	for _, nb := range g.Neighbors(0) {
		if ldt.DelaunayEdge(view.Pts, inner, 0, nb) && !ldt.DelaunayEdge(view.Pts, all, 0, nb) {
			out = append(out, nb)
		}
	}
	return out
}

// TestMaintainerBeaconViews: on views with points beyond two hops of
// self, as beacons one interval apart deliver them, the Maintainer
// accepts exactly the neighbors of the triangulating LDTGNeighbors and of
// the per-witness rule, in view order, and some views hold edges that
// only the points beyond two hops reject.
func TestMaintainerBeaconViews(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := ldt.NewMaintainer()
	const r = 100
	views, far, rejects := 0, 0, 0
	for world := 0; world < 20; world++ {
		old := ldt.RandomPoints(rng, 120, 800, 800)
		cur := slices.Clone(old)
		for i := range cur {
			cur[i].X += rng.Float64()*80 - 40
			cur[i].Y += rng.Float64()*80 - 40
		}
		for self := range cur {
			view := beaconView(t, cur, old, self, r)
			if len(oracle.KnownGraph(view).KHop(0, ldt.K)) < len(view.Pts) {
				far++
			}
			rejects += len(extraRejects(view))
			views++
			got, _ := m.Neighbors(view, ldt.VariantLDTG)
			if want := referenceNeighbors(t, view, ldt.VariantLDTG, ldt.K); !slices.Equal(got, want) {
				t.Fatalf("world %d self %d: maintainer %v != LDTGNeighbors %v", world, self, got, want)
			}
			if want := ldt.PerWitnessNeighbors(view); !slices.Equal(got, want) {
				t.Fatalf("world %d self %d: maintainer %v != per-witness rule %v", world, self, got, want)
			}
		}
	}
	t.Logf("%d views, %d with points beyond %d hops, %d edges rejected only beyond", views, far, ldt.K, rejects)
	if far == 0 || rejects == 0 {
		t.Fatalf("%d views with points beyond %d hops and %d edges rejected only there; want both > 0", far, ldt.K, rejects)
	}
}

// fallbackKeepView is a view where the points beyond self's K-hop set
// reject the edge (self, b) but every witness set accepts it, so only
// the per-witness scans keep it. Local indices: 0 self, 1 b, 2 w, 3 y,
// 4 v, 5 x.
//
// In exact arithmetic no such view exists. A left point and a right
// point that reject an edge between them have one of the two in the
// closed disk on the edge as diameter, so within the edge's length of
// self: a neighbor of self, which is in every witness set. But the
// unit-disk test rounds: y is nearer to self than b is (|self b| = r),
// yet its squared distance is computed above r², so y is only b's
// neighbor. x is 3 hops out (self, w, v, x) and its circle through self
// and b holds y. Self's set holds y and not x, w's holds x and not y,
// and b's holds y and not x: each accepts.
func fallbackKeepView() ([]geom.Point, float64) {
	return []geom.Point{
		geom.Pt(-3, -4),
		geom.Pt(2.2204457679839056e-16, -2.805716840207989e-19),
		geom.Pt(-6.9, -6.7),
		geom.Pt(2.2204470554471866e-16, -2.814729083174891e-19),
		geom.Pt(-8.9, -2.3),
		geom.Pt(-5.2, 0.7),
	}, 5
}

// TestMaintainerFallbackKeepsEdge: an edge the points beyond K hops
// reject is still accepted when every witness set accepts it.
func TestMaintainerFallbackKeepsEdge(t *testing.T) {
	pts, r := fallbackKeepView()
	ids := []int{0, 1, 2, 3, 4, 5}
	view, err := newView(0, ids, pts, r)
	if err != nil {
		t.Fatal(err)
	}
	if nbrs := oracle.KnownGraph(view).Neighbors(0); !slices.Equal(nbrs, []int{1, 2}) {
		t.Fatalf("self's neighbors %v, want [1 2]", nbrs)
	}
	exactDist2 := func(p, q geom.Point) *big.Rat {
		dx := new(big.Rat).Sub(new(big.Rat).SetFloat64(p.X), new(big.Rat).SetFloat64(q.X))
		dy := new(big.Rat).Sub(new(big.Rat).SetFloat64(p.Y), new(big.Rat).SetFloat64(q.Y))
		return dx.Add(dx.Mul(dx, dx), dy.Mul(dy, dy))
	}
	if exactDist2(pts[0], pts[3]).Cmp(exactDist2(pts[0], pts[1])) >= 0 || pts[0].Dist2(pts[3]) <= r*r {
		t.Fatal("y must be nearer to self than b, with its squared distance computed above r²")
	}
	if got := extraRejects(view); !slices.Equal(got, []int{1}) {
		t.Fatalf("edges rejected only beyond %d hops %v, want [1]", ldt.K, got)
	}
	got, _ := ldt.NewMaintainer().Neighbors(view, ldt.VariantLDTG)
	if want := referenceNeighbors(t, view, ldt.VariantLDTG, ldt.K); !slices.Equal(got, want) || !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("maintainer %v, LDTGNeighbors %v; want both [1 2]", got, want)
	}
	if want := ldt.PerWitnessNeighbors(view); !slices.Equal(got, want) {
		t.Fatalf("maintainer %v != per-witness rule %v", got, want)
	}
}

// TestLDTGNeighborsPermutationInvariant: the accepted set must be
// invariant under permuting the view's point order and under relabeling
// global node ids, and a permuted view asked after the original on one
// Maintainer must be answered as a fresh Maintainer answers it, in the
// reference's order.
func TestLDTGNeighborsPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const r = 240
	for trial := 0; trial < 20; trial++ {
		pts := ldt.RandomPoints(rng, 30, 700, 700)
		self := rng.Intn(len(pts))
		base := buildView(t, pts, self, r, func(i int) int { return i })

		baseLocal, err := oracle.LDTGNeighbors(base, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := acceptedIDs(base, baseLocal)

		// Point-order permutation: same ids and positions, shuffled
		// order after self.
		perm := rand.New(rand.NewSource(int64(trial))).Perm(len(base.IDs) - 1)
		pIDs := []int{base.IDs[0]}
		pPts := []geom.Point{base.Pts[0]}
		for _, j := range perm {
			pIDs = append(pIDs, base.IDs[j+1])
			pPts = append(pPts, base.Pts[j+1])
		}
		shuffled, err := newView(base.SelfID, pIDs, pPts, r)
		if err != nil {
			t.Fatal(err)
		}
		shuffledLocal, err := oracle.LDTGNeighbors(shuffled, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := acceptedIDs(shuffled, shuffledLocal); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: point-order permutation changed acceptance: %v != %v", trial, got, want)
		}

		// Node-id relabeling: bijection σ, accepted(σ(view)) == σ(accepted).
		sigma := func(i int) int { return 1000 + 7*i }
		relabeled := buildView(t, pts, self, r, sigma)
		relLocal, err := oracle.LDTGNeighbors(relabeled, 2)
		if err != nil {
			t.Fatal(err)
		}
		wantRel := make([]int, len(want))
		for i, id := range want {
			wantRel[i] = sigma(id)
		}
		sort.Ints(wantRel)
		if got := acceptedIDs(relabeled, relLocal); !reflect.DeepEqual(got, wantRel) {
			t.Fatalf("trial %d: id relabeling changed acceptance: %v != %v", trial, got, wantRel)
		}

		// History check: the shuffled view asked after the original on
		// one Maintainer must answer exactly as a fresh Maintainer does,
		// in the same order.
		m := ldt.NewMaintainer()
		m.Neighbors(base, ldt.VariantLDTG)
		got, _ := m.Neighbors(shuffled, ldt.VariantLDTG)
		fresh, _ := ldt.NewMaintainer().Neighbors(shuffled, ldt.VariantLDTG)
		if !slices.Equal(got, fresh) || !slices.Equal(got, viewIDs(shuffled, shuffledLocal)) {
			t.Fatalf("trial %d: acceptance after the original view %v != fresh %v", trial, got, fresh)
		}
	}
}

// spannerBenchView builds a dense 2-hop view comparable to the paper's
// 100 m-range neighborhoods at scale.
func spannerBenchView(b *testing.B, n int) *ldt.LocalView {
	rng := rand.New(rand.NewSource(77))
	pts := ldt.RandomPoints(rng, n, 1200, 1200)
	const r = 260
	udg := geom.UnitDiskGraph(pts, r)
	ids := []int{0}
	vpts := []geom.Point{pts[0]}
	for _, v := range udg.KHop(0, 2) {
		if v != 0 {
			ids = append(ids, v)
			vpts = append(vpts, pts[v])
		}
	}
	view, err := newView(0, ids, vpts, r)
	if err != nil {
		b.Fatal(err)
	}
	return view
}

// BenchmarkSpannerNeighbors measures one routing-loop LDTG query on the
// same view with one position moved before every query, the regime of
// fully mobile nodes. It allocates nothing once the scratch has grown.
func BenchmarkSpannerNeighbors(b *testing.B) {
	view := spannerBenchView(b, 60)
	m := ldt.NewMaintainer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.Pts[len(view.Pts)-1].X += 1e-9
		m.Neighbors(view, ldt.VariantLDTG)
	}
}
