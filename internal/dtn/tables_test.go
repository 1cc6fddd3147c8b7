package dtn

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"glr/internal/geom"
)

func TestLocationTableUpdate(t *testing.T) {
	lt := new(LocationTable)
	if !lt.Update(1, geom.Pt(5, 5), 10) {
		t.Fatal("first update should succeed")
	}
	if lt.Update(1, geom.Pt(6, 6), 9) {
		t.Error("older timestamp must not overwrite")
	}
	if lt.Update(1, geom.Pt(6, 6), 10) {
		t.Error("equal timestamp must not overwrite")
	}
	if !lt.Update(1, geom.Pt(6, 6), 11) {
		t.Error("fresher timestamp should overwrite")
	}
	e, ok := lt.Get(1)
	if !ok || !e.Pos.Eq(geom.Pt(6, 6)) || e.Time != 11 {
		t.Errorf("entry = %+v", e)
	}
	if _, ok := lt.Get(99); ok {
		t.Error("unknown id should miss")
	}
}

// knownIDs returns the ids t holds, in ascending order.
func knownIDs(t *LocationTable) []int {
	return slices.Sorted(maps.Keys(t.entries))
}

// merge adopts every entry of src that is fresher than dst's, returning
// the number of rows updated: the freshness rule every location update
// (beacon, frame header or ack) applies, here row by row.
func merge(dst, src *LocationTable) int {
	n := 0
	for _, id := range knownIDs(src) {
		if e, _ := src.Get(id); dst.Update(id, e.Pos, e.Time) {
			n++
		}
	}
	return n
}

func TestLocationTableMerge(t *testing.T) {
	a := new(LocationTable)
	b := new(LocationTable)
	a.Update(1, geom.Pt(1, 1), 10)
	a.Update(2, geom.Pt(2, 2), 10)
	b.Update(1, geom.Pt(9, 9), 20) // fresher
	b.Update(3, geom.Pt(3, 3), 5)  // new node
	if n := merge(a, b); n != 2 {
		t.Errorf("Merge updated %d rows, want 2", n)
	}
	if e, _ := a.Get(1); !e.Pos.Eq(geom.Pt(9, 9)) {
		t.Error("fresher entry should win on merge")
	}
	if e, _ := a.Get(2); !e.Pos.Eq(geom.Pt(2, 2)) {
		t.Error("unrelated entry should survive")
	}
	if got := knownIDs(a); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("IDs = %v", got)
	}
	if len(a.entries) != 3 {
		t.Errorf("Len = %d", len(a.entries))
	}
}

func TestNeighborTableObserveExpire(t *testing.T) {
	nt := new(NeighborTable)
	nt.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(1, 0), LastSeen: 10})
	nt.Observe(NeighborInfo{ID: 2, Pos: geom.Pt(2, 0), LastSeen: 20})
	nt.Observe(NeighborInfo{ID: 3, Pos: geom.Pt(3, 0), LastSeen: 30})
	if len(nt.rows) != 3 {
		t.Fatalf("Len = %d", len(nt.rows))
	}
	gone := nt.Expire(20) // rows with LastSeen ≤ 20
	if !reflect.DeepEqual(gone, []int{1, 2}) {
		t.Errorf("expired %v, want [1 2]", gone)
	}
	if len(nt.rows) != 1 {
		t.Errorf("Len after expire = %d", len(nt.rows))
	}
	if _, ok := nt.Get(3); !ok {
		t.Error("fresh row should survive")
	}
	if gone := nt.Expire(30); !reflect.DeepEqual(gone, []int{3}) || len(nt.rows) != 0 {
		t.Errorf("expired %v, Len %d; want [3], 0", gone, len(nt.rows))
	}
}

func TestNeighborTableRefresh(t *testing.T) {
	nt := new(NeighborTable)
	nt.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(1, 0), LastSeen: 10})
	nt.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(5, 0), LastSeen: 15})
	r, _ := nt.Get(1)
	if !r.Pos.Eq(geom.Pt(5, 0)) || r.LastSeen != 15 {
		t.Errorf("row not refreshed: %+v", r)
	}
	if len(nt.rows) != 1 {
		t.Error("refresh must not duplicate rows")
	}
}

func TestNeighborTableSnapshotSorted(t *testing.T) {
	nt := new(NeighborTable)
	for _, id := range []int{5, 1, 3} {
		nt.Observe(NeighborInfo{ID: id, LastSeen: 1})
	}
	snap := snapshot(nt)
	if len(snap) != 3 || snap[0].ID != 1 || snap[1].ID != 3 || snap[2].ID != 5 {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
}

func TestTwoHopPoints(t *testing.T) {
	nt := new(NeighborTable)
	nt.Observe(NeighborInfo{
		ID: 1, Pos: geom.Pt(10, 0), LastSeen: 1,
		Neighbors: []NeighborNeighbor{
			{ID: 2, Pos: geom.Pt(20, 0)},
			{ID: 0, Pos: geom.Pt(0, 0)}, // self appears in neighbor's list
		},
	})
	nt.Observe(NeighborInfo{
		ID: 3, Pos: geom.Pt(0, 10), LastSeen: 1,
		Neighbors: []NeighborNeighbor{
			{ID: 2, Pos: geom.Pt(20, 0)}, // duplicate two-hop
			{ID: 4, Pos: geom.Pt(0, 20)},
		},
	})
	ids, pts := nt.AppendTwoHop(nil, nil, 0, geom.Pt(0, 0))
	if len(ids) != len(pts) {
		t.Fatal("parallel slices must align")
	}
	if ids[0] != 0 || !pts[0].Eq(geom.Pt(0, 0)) {
		t.Fatal("self must come first")
	}
	want := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	got := map[int]bool{}
	for _, id := range ids {
		if got[id] {
			t.Fatalf("duplicate id %d in two-hop set", id)
		}
		got[id] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("two-hop ids = %v, want %v", got, want)
	}
}

func TestTwoHopPointsEmpty(t *testing.T) {
	nt := new(NeighborTable)
	ids, pts := nt.AppendTwoHop(nil, nil, 7, geom.Pt(1, 2))
	if len(ids) != 1 || ids[0] != 7 || !pts[0].Eq(geom.Pt(1, 2)) {
		t.Error("empty table should yield only self")
	}
}
