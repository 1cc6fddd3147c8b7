package ldt

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"glr/internal/geom"
)

// buildView assembles the 2-hop view of node self over pts with arbitrary
// global ids supplied by label.
func buildView(t *testing.T, pts []geom.Point, self int, r float64, label func(int) int) *LocalView {
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
	view, err := NewLocalView(label(self), ids, vpts, r)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// viewIDs maps local acceptance indices to global ids, in view order.
func viewIDs(view *LocalView, local []int) []int {
	out := make([]int, len(local))
	for i, li := range local {
		out[i] = view.IDs[li]
	}
	return out
}

// acceptedIDs maps local acceptance indices to sorted global ids.
func acceptedIDs(view *LocalView, local []int) []int {
	out := viewIDs(view, local)
	sort.Ints(out)
	return out
}

// referenceNeighbors is the from-scratch oracle for a Maintainer query:
// the reference Delaunay construction for the LDTG, and the direct
// per-call constructions for the Gabriel and UDG variants, mapped to
// global ids in view order.
func referenceNeighbors(t *testing.T, view *LocalView, variant Variant, k int) []int {
	t.Helper()
	var local []int
	switch variant {
	case VariantGabriel:
		local = view.GabrielNeighbors()
	case VariantUDG:
		local = view.UDGNeighbors()
	default:
		var err error
		if local, err = view.LDTGNeighborsRef(k); err != nil {
			t.Fatal(err)
		}
	}
	return viewIDs(view, local)
}

// permutedView returns view with the points after self shuffled: the same
// query in a different order, which must accept the same neighbors.
func permutedView(t *testing.T, view *LocalView, rng *rand.Rand) *LocalView {
	t.Helper()
	ids := []int{view.IDs[0]}
	pts := []geom.Point{view.Pts[0]}
	for _, j := range rng.Perm(len(view.IDs) - 1) {
		ids = append(ids, view.IDs[j+1])
		pts = append(pts, view.Pts[j+1])
	}
	pv, err := NewLocalView(view.SelfID, ids, pts, view.R)
	if err != nil {
		t.Fatal(err)
	}
	return pv
}

// TestMaintainerMatchesFromScratch: across evolving random topologies the
// Maintainer's per-edge tests must return exactly the accepted neighbors
// of the reference triangulation-based construction (LDTGNeighborsRef for
// the LDTG), in the same view order, for every variant, on each view and
// then on a permuted copy of it. Routing reads the list in order, so an
// answer that kept the order of an earlier, differently ordered view is a
// defect.
func TestMaintainerMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMaintainer()
	const r = 250
	pts := randomPoints(rng, 40, 900, 900)
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
			for _, view := range []*LocalView{base, permutedView(t, base, rng)} {
				for _, variant := range []Variant{VariantLDTG, VariantGabriel, VariantUDG} {
					gotIDs, gotPts, err := m.Neighbors(view, variant, 2)
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceNeighbors(t, view, variant, 2); !slices.Equal(gotIDs, want) {
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

// TestLDTGNeighborsPermutationInvariant: the accepted set must be
// invariant under permuting the view's point order and under relabeling
// global node ids, and a permuted view asked after the original on one
// Maintainer must be answered as a fresh Maintainer answers it, in the
// reference's order.
func TestLDTGNeighborsPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const r = 240
	for trial := 0; trial < 20; trial++ {
		pts := randomPoints(rng, 30, 700, 700)
		self := rng.Intn(len(pts))
		base := buildView(t, pts, self, r, func(i int) int { return i })

		baseLocal, err := base.LDTGNeighbors(2)
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
		shuffled, err := NewLocalView(base.SelfID, pIDs, pPts, r)
		if err != nil {
			t.Fatal(err)
		}
		shuffledLocal, err := shuffled.LDTGNeighbors(2)
		if err != nil {
			t.Fatal(err)
		}
		if got := acceptedIDs(shuffled, shuffledLocal); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: point-order permutation changed acceptance: %v != %v", trial, got, want)
		}

		// Node-id relabeling: bijection σ, accepted(σ(view)) == σ(accepted).
		sigma := func(i int) int { return 1000 + 7*i }
		relabeled := buildView(t, pts, self, r, sigma)
		relLocal, err := relabeled.LDTGNeighbors(2)
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
		m := NewMaintainer()
		if _, _, err := m.Neighbors(base, VariantLDTG, 2); err != nil {
			t.Fatal(err)
		}
		got, _, err := m.Neighbors(shuffled, VariantLDTG, 2)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := NewMaintainer().Neighbors(shuffled, VariantLDTG, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, fresh) || !slices.Equal(got, viewIDs(shuffled, shuffledLocal)) {
			t.Fatalf("trial %d: acceptance after the original view %v != fresh %v", trial, got, fresh)
		}
	}
}

// TestLDTGNeighborsRefMatchesMesh: the reference and mesh-backed
// from-scratch constructions agree on general-position views.
func TestLDTGNeighborsRefMatchesMesh(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(rng, 40, 900, 900)
		const r = 230
		for self := 0; self < len(pts); self += 5 {
			view := buildView(t, pts, self, r, func(i int) int { return i })
			a, err := view.LDTGNeighbors(2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := view.LDTGNeighborsRef(2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d self %d: mesh %v != ref %v", trial, self, a, b)
			}
		}
	}
}

// spannerBenchView builds a dense 2-hop view comparable to the paper's
// 100 m-range neighborhoods at scale.
func spannerBenchView(b *testing.B, n int) *LocalView {
	rng := rand.New(rand.NewSource(77))
	pts := randomPoints(rng, n, 1200, 1200)
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
	view, err := NewLocalView(0, ids, vpts, r)
	if err != nil {
		b.Fatal(err)
	}
	return view
}

// BenchmarkSpannerFromScratchRef is the cost of one routing-loop spanner
// construction on the reference oracle (reference Delaunay, per-call
// memo only), the baseline the Maintainer is measured against.
func BenchmarkSpannerFromScratchRef(b *testing.B) {
	view := spannerBenchView(b, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := view.LDTGNeighborsRef(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpannerNeighbors measures one routing-loop LDTG query on the
// same view with one position moved before every query, the regime of
// fully mobile nodes. It allocates nothing once the scratch has grown.
func BenchmarkSpannerNeighbors(b *testing.B) {
	view := spannerBenchView(b, 60)
	m := NewMaintainer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.Pts[len(view.Pts)-1].X += 1e-9
		if _, _, err := m.Neighbors(view, VariantLDTG, 2); err != nil {
			b.Fatal(err)
		}
	}
}
