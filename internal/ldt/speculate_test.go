package ldt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"glr/internal/geom"
	"glr/internal/shard"
)

// randView builds a connected-ish random view: self at the centre of a
// field sized so most nodes are within radio range of something.
func randView(rng *rand.Rand, n int, r float64) (ids []int, pts []geom.Point) {
	ids = append(ids, 1000)
	pts = append(pts, geom.Pt(rng.Float64()*r, rng.Float64()*r))
	for i := 0; i < n; i++ {
		ids = append(ids, rng.Intn(500))
		pts = append(pts, geom.Pt(rng.Float64()*2.5*r, rng.Float64()*2.5*r))
	}
	// Dedup ids, keeping first occurrence order (views need unique ids).
	seen := map[int]bool{1000: true}
	outIDs, outPts := ids[:1], pts[:1]
	for i := 1; i < len(ids); i++ {
		if !seen[ids[i]] {
			seen[ids[i]] = true
			outIDs = append(outIDs, ids[i])
			outPts = append(outPts, pts[i])
		}
	}
	return outIDs, outPts
}

// TestSpeculateAdoptionIdentical: for randomized views, a query answered
// by adopting a speculative build must return exactly the bytes the
// serial Maintainer returns for the same view.
func TestSpeculateAdoptionIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := shard.NewPool(4)
	defer pool.Close()
	const r = 100.0
	for trial := 0; trial < 120; trial++ {
		ids, pts := randView(rng, 3+rng.Intn(25), r)
		k := 1 + rng.Intn(2)
		now := float64(trial)

		serial := NewMaintainer()
		view1, err := NewLocalView(ids[0], ids, pts, r)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs, wantPts, wantErr := serial.Neighbors(view1, VariantLDTG, k, now)

		conc := NewMaintainer()
		conc.EnableConcurrent(pool)
		if !conc.Speculative() {
			t.Fatal("EnableConcurrent did not take")
		}
		conc.Speculate(ids[0], ids, pts, r, VariantLDTG, k, now)
		// Wait for the parked build so the query exercises adoption, not
		// the in-flight wait (that path is hammered separately below).
		conc.mu.Lock()
		var parked *specEntry
		for _, bucket := range conc.specs {
			for _, s := range bucket {
				parked = s
			}
		}
		conc.mu.Unlock()
		if parked != nil {
			<-parked.done
		}
		view2, err := NewLocalView(ids[0], ids, pts, r)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, gotPts, gotErr := conc.Neighbors(view2, VariantLDTG, k, now)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: err mismatch: serial %v, adopted %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(wantIDs, gotIDs) || !reflect.DeepEqual(wantPts, gotPts) {
			t.Fatalf("trial %d: adopted result diverged:\n  serial:  %v\n  adopted: %v", trial, wantIDs, gotIDs)
		}
		if parked != nil && parked.err == nil {
			if st := conc.Stats(); st.SpecAdopted != 1 {
				t.Fatalf("trial %d: SpecAdopted = %d, want 1 (stats %+v)", trial, st.SpecAdopted, st)
			}
		}
		// A repeated query hits the promoted result-cache entry.
		again, _, _ := conc.Neighbors(view2, VariantLDTG, k, now+0.1)
		if !reflect.DeepEqual(again, gotIDs) {
			t.Fatalf("trial %d: promoted entry not stable", trial)
		}
	}
}

// TestSpeculateStalePredictionFallsBack: a speculation for a view that
// never materializes is ignored — the real (different) query builds
// inline and matches the serial answer; the stale entry is swept.
func TestSpeculateStalePredictionFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := shard.NewPool(2)
	defer pool.Close()
	const r = 80.0
	for trial := 0; trial < 40; trial++ {
		ids, pts := randView(rng, 10+rng.Intn(10), r)
		conc := NewMaintainer()
		conc.EnableConcurrent(pool)
		// Predict a perturbed view (one position nudged).
		wrongPts := append([]geom.Point(nil), pts...)
		wrongPts[len(wrongPts)-1].X += 1
		conc.Speculate(ids[0], ids, wrongPts, r, VariantLDTG, 1, 1.0)
		// Let the build park so the later sweep sees a done entry.
		conc.mu.Lock()
		var parked *specEntry
		for _, bucket := range conc.specs {
			for _, s := range bucket {
				parked = s
			}
		}
		conc.mu.Unlock()
		if parked != nil {
			<-parked.done
		}

		serial := NewMaintainer()
		view := func() *LocalView {
			v, err := NewLocalView(ids[0], ids, pts, r)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		wantIDs, _, wantErr := serial.Neighbors(view(), VariantLDTG, 1, 1.0)
		gotIDs, _, gotErr := conc.Neighbors(view(), VariantLDTG, 1, 1.0)
		if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(wantIDs, gotIDs) {
			t.Fatalf("trial %d: fallback diverged: serial %v/%v, conc %v/%v",
				trial, wantIDs, wantErr, gotIDs, gotErr)
		}
		if st := conc.Stats(); st.SpecAdopted != 0 {
			t.Fatalf("trial %d: stale prediction was adopted: %+v", trial, st)
		}
		// Sweep far in the future reaps the stale parked entry.
		conc.Neighbors(view(), VariantLDTG, 1, 100.0)
		conc.mu.Lock()
		left := len(conc.specs)
		conc.mu.Unlock()
		if left != 0 {
			t.Fatalf("trial %d: %d stale spec bucket(s) survived the sweep", trial, left)
		}
	}
}

// TestSpeculateHammer races many speculations against queries on one
// shared Maintainer — the -race job's main ldt workout. Every answer
// must equal the serial Maintainer's answer for the same view.
func TestSpeculateHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pool := shard.NewPool(4)
	defer pool.Close()
	conc := NewMaintainer()
	conc.EnableConcurrent(pool)
	serial := NewMaintainer()
	const r = 60.0
	type q struct {
		ids []int
		pts []geom.Point
		k   int
	}
	var queries []q
	for i := 0; i < 60; i++ {
		ids, pts := randView(rng, 4+rng.Intn(20), r)
		queries = append(queries, q{ids, pts, 1 + rng.Intn(2)})
	}
	now := 0.0
	for round := 0; round < 6; round++ {
		for i, qq := range queries {
			now += 0.05
			// Speculate a few entries ahead, never waiting.
			ahead := queries[(i+1+round)%len(queries)]
			conc.Speculate(ahead.ids[0], ahead.ids, ahead.pts, r, VariantLDTG, ahead.k, now+0.5)
			mk := func() *LocalView {
				v, err := NewLocalView(qq.ids[0], qq.ids, qq.pts, r)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			wantIDs, wantPts, wantErr := serial.Neighbors(mk(), VariantLDTG, qq.k, now)
			gotIDs, gotPts, gotErr := conc.Neighbors(mk(), VariantLDTG, qq.k, now)
			if (wantErr == nil) != (gotErr == nil) ||
				!reflect.DeepEqual(wantIDs, gotIDs) || !reflect.DeepEqual(wantPts, gotPts) {
				t.Fatalf("round %d query %d diverged: serial %v/%v, conc %v/%v",
					round, i, wantIDs, wantErr, gotIDs, gotErr)
			}
		}
	}
	st := conc.Stats()
	if st.SpecBuilds == 0 {
		t.Fatal("hammer never launched a speculative build")
	}
	t.Logf("hammer stats: %+v", st)
}

// TestEnableConcurrentRefusals: serial and nil pools stay
// single-threaded.
func TestEnableConcurrentRefusals(t *testing.T) {
	m2 := NewMaintainer()
	m2.EnableConcurrent(shard.NewPool(1))
	if m2.Speculative() {
		t.Fatal("serial pool enabled concurrency")
	}
	m2.EnableConcurrent(nil)
	if m2.Speculative() {
		t.Fatal("nil pool enabled concurrency")
	}
	// Speculate on a serial maintainer is a harmless no-op.
	m2.Speculate(0, []int{0, 1}, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, 10, VariantLDTG, 1, 1)
	if st := m2.Stats(); st.SpecBuilds != 0 {
		t.Fatalf("serial maintainer speculated: %+v", st)
	}
}

var _ = fmt.Sprintf // keep fmt if assertions above change
