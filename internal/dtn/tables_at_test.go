package dtn

import (
	"math/rand"
	"reflect"
	"testing"

	"glr/internal/geom"
)

// TestAppendTwoHopAtMatchesExpire: on both backends, AppendTwoHopAt must
// emit exactly what Expire(deadline) followed by AppendTwoHop would —
// same ids, same positions, same order, and equal to the map-backed
// reference's view over the unexpired rows — while leaving the table
// untouched. This is the contract the speculative spanner path relies on
// to preview a future route check's view.
func TestAppendTwoHopAtMatchesExpire(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const idSpace = 40
	for trial := 0; trial < 60; trial++ {
		// Two identical tables per backend: one previews with
		// AppendTwoHopAt, the other actually expires.
		tables := []*NeighborTable{
			NewDenseNeighborTable(idSpace), NewDenseNeighborTable(idSpace),
			NewCompactNeighborTable(), NewCompactNeighborTable(),
		}
		ref := newRefNeighborTable()
		now := 0.0
		for step := 0; step < 30+rng.Intn(40); step++ {
			now += rng.Float64()
			info := NeighborInfo{
				ID:       rng.Intn(idSpace),
				Pos:      geom.Pt(rng.Float64()*100, rng.Float64()*100),
				LastSeen: now,
			}
			for n := rng.Intn(4); n > 0; n-- {
				info.Neighbors = append(info.Neighbors, NeighborNeighbor{
					ID:  rng.Intn(idSpace),
					Pos: geom.Pt(rng.Float64()*100, rng.Float64()*100),
				})
			}
			for _, tbl := range tables {
				tbl.Observe(info)
			}
			ref.Observe(info)
		}
		deadline := now - rng.Float64()*3
		self := idSpace + 1
		selfPos := geom.Pt(3, 4)
		refIDs, refPts := ref.TwoHopPointsAt(self, selfPos, deadline)
		for b := 0; b < 4; b += 2 {
			before, beforePts := tables[b].AppendTwoHop(nil, nil, self, selfPos)
			preview, previewPts := tables[b].AppendTwoHopAt(nil, nil, self, selfPos, deadline)
			tables[b+1].Expire(deadline)
			want, wantPts := tables[b+1].AppendTwoHop(nil, nil, self, selfPos)
			if !reflect.DeepEqual(preview, want) || !reflect.DeepEqual(previewPts, wantPts) {
				t.Fatalf("trial %d backend %d: AppendTwoHopAt diverged from Expire+AppendTwoHop:\n  at:      %v\n  expired: %v",
					trial, b/2, preview, want)
			}
			if !reflect.DeepEqual(preview, refIDs) || !reflect.DeepEqual(previewPts, refPts) {
				t.Fatalf("trial %d backend %d: AppendTwoHopAt diverged from the map-backed reference:\n  at:  %v\n  ref: %v",
					trial, b/2, preview, refIDs)
			}
			// The preview must not have mutated the table: a plain
			// AppendTwoHop before and after agrees.
			after, afterPts := tables[b].AppendTwoHop(nil, nil, self, selfPos)
			if !reflect.DeepEqual(before, after) || !reflect.DeepEqual(beforePts, afterPts) {
				t.Fatalf("trial %d backend %d: AppendTwoHopAt mutated the table", trial, b/2)
			}
		}
	}
}
