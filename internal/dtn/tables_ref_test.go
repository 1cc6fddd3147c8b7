package dtn

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"glr/internal/geom"
)

// refNeighborTable is the map-backed reference the neighbor table is
// checked against: rows keyed by id in a Go map, every ordered output
// produced by sorting, and two-hop dedup through a per-call set — the
// straightforward implementation of the NeighborTable contract.
type refNeighborTable struct {
	m map[int]NeighborInfo
}

func newRefNeighborTable() *refNeighborTable {
	return &refNeighborTable{m: make(map[int]NeighborInfo)}
}

func (t *refNeighborTable) Len() int { return len(t.m) }

func (t *refNeighborTable) Reset() { clear(t.m) }

func (t *refNeighborTable) Observe(info NeighborInfo) {
	if info.ID < 0 {
		return
	}
	info.Neighbors = append([]NeighborNeighbor(nil), info.Neighbors...)
	t.m[info.ID] = info
}

func (t *refNeighborTable) Get(id int) (NeighborInfo, bool) {
	r, ok := t.m[id]
	return r, ok
}

func (t *refNeighborTable) Expire(deadline float64) []int {
	var gone []int
	for id, r := range t.m {
		if r.LastSeen <= deadline {
			gone = append(gone, id)
			delete(t.m, id)
		}
	}
	sort.Ints(gone)
	return gone
}

func (t *refNeighborTable) Snapshot() []NeighborInfo {
	out := make([]NeighborInfo, 0, len(t.m))
	for _, r := range t.m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (t *refNeighborTable) AppendAdvertised(buf []NeighborNeighbor) []NeighborNeighbor {
	for _, r := range t.Snapshot() {
		buf = append(buf, NeighborNeighbor{ID: r.ID, Pos: r.Pos})
	}
	return buf
}

// TwoHopPointsAt is the two-hop view over the rows last seen after
// deadline: self first, then rows in ascending id order, each followed by
// its unseen, nonnegative advertised neighbors in advertisement order.
func (t *refNeighborTable) TwoHopPointsAt(selfID int, selfPos geom.Point, deadline float64) ([]int, []geom.Point) {
	ids := []int{selfID}
	pts := []geom.Point{selfPos}
	seen := map[int]bool{selfID: true}
	for _, r := range t.Snapshot() {
		if r.LastSeen <= deadline {
			continue
		}
		if !seen[r.ID] {
			seen[r.ID] = true
			ids = append(ids, r.ID)
			pts = append(pts, r.Pos)
		}
		for _, nn := range r.Neighbors {
			if nn.ID >= 0 && !seen[nn.ID] {
				seen[nn.ID] = true
				ids = append(ids, nn.ID)
				pts = append(pts, nn.Pos)
			}
		}
	}
	return ids, pts
}

// snapshot returns the table's live rows in ascending id order, read
// through AppendAdvertised and Get.
func snapshot(t *NeighborTable) []NeighborInfo {
	var out []NeighborInfo
	for _, nn := range t.AppendAdvertised(nil) {
		r, _ := t.Get(nn.ID)
		out = append(out, r)
	}
	return out
}

// checkTablesAgree asserts every observable output of the table matches
// the reference for the current state.
func checkTablesAgree(t *testing.T, m *refNeighborTable, d *NeighborTable, idSpace int) {
	t.Helper()
	if m.Len() != len(d.rows) {
		t.Fatalf("Len: ref %d, table %d", m.Len(), len(d.rows))
	}
	if !neighborsEqual(m.Snapshot(), snapshot(d)) {
		t.Fatalf("rows mismatch:\nref   %+v\ntable %+v", m.Snapshot(), snapshot(d))
	}
	mi, mp := m.TwoHopPointsAt(idSpace, geom.Pt(1, 2), math.Inf(-1))
	di, dp := d.AppendTwoHop(nil, nil, idSpace, geom.Pt(1, 2), new(IDMarks))
	if !reflect.DeepEqual(mi, di) || !reflect.DeepEqual(mp, dp) {
		t.Fatalf("AppendTwoHop mismatch:\nref   %v %v\ntable %v %v", mi, mp, di, dp)
	}
	if !reflect.DeepEqual(m.AppendAdvertised(nil), d.AppendAdvertised(nil)) {
		t.Fatalf("AppendAdvertised mismatch")
	}
	for id := -1; id <= idSpace; id++ {
		mr, mok := m.Get(id)
		dr, dok := d.Get(id)
		if mok != dok {
			t.Fatalf("Get(%d) presence: ref %v, table %v", id, mok, dok)
		}
		if mok && !neighborRowEqual(mr, dr) {
			t.Fatalf("Get(%d): ref %+v, table %+v", id, mr, dr)
		}
	}
}

// neighborRowEqual compares rows treating nil and empty Neighbors as
// equal (the two differ only in backing-array provenance).
func neighborRowEqual(a, b NeighborInfo) bool {
	if a.ID != b.ID || a.Pos != b.Pos || a.LastSeen != b.LastSeen {
		return false
	}
	if len(a.Neighbors) != len(b.Neighbors) {
		return false
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			return false
		}
	}
	return true
}

func neighborsEqual(a, b []NeighborInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !neighborRowEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkExpireAgrees expires both tables at deadline and asserts they
// drop the same ids.
func checkExpireAgrees(t *testing.T, m *refNeighborTable, d *NeighborTable, deadline float64) {
	t.Helper()
	gm := m.Expire(deadline)
	gd := append([]int(nil), d.Expire(deadline)...)
	if (len(gm) > 0 || len(gd) > 0) && !reflect.DeepEqual(gm, gd) {
		t.Fatalf("Expire(%v): ref %v, table %v", deadline, gm, gd)
	}
}

// TestNeighborTableRefEquivalenceChurn drives the table and the
// map-backed reference through randomized Observe/Expire/Reset churn —
// neighbors expiring, re-appearing, and ids and row storage being
// reused — asserting identical rows, two-hop views and Get
// results throughout.
func TestNeighborTableRefEquivalenceChurn(t *testing.T) {
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*2671 + 9))
		idSpace := 4 + rng.Intn(28)
		m := newRefNeighborTable()
		d := new(NeighborTable)
		now := 0.0
		for step := 0; step < 300; step++ {
			now += rng.Float64()
			switch op := rng.Intn(50); {
			case op < 30: // observe a beacon (possibly an id re-appearing)
				id := rng.Intn(idSpace)
				adv := make([]NeighborNeighbor, rng.Intn(5))
				for i := range adv {
					adv[i] = NeighborNeighbor{
						ID:  rng.Intn(idSpace+5) - 1, // ids beyond the row range, and -1
						Pos: geom.Pt(rng.Float64()*100, rng.Float64()*100),
					}
				}
				info := NeighborInfo{
					ID:        id,
					Pos:       geom.Pt(rng.Float64()*100, rng.Float64()*100),
					LastSeen:  now,
					Neighbors: adv,
				}
				m.Observe(info)
				d.Observe(info)
			case op < 49: // expire stale rows
				checkExpireAgrees(t, m, d, now-rng.Float64()*3)
			default:
				m.Reset()
				d.Reset()
			}
			if step%17 == 0 {
				checkTablesAgree(t, m, d, idSpace+4)
			}
		}
		checkTablesAgree(t, m, d, idSpace+4)
	}
}

// FuzzNeighborTable decodes the input into a sequence of Observe,
// Expire, Reset and AppendTwoHop operations and checks every result
// against the map-backed reference.
func FuzzNeighborTable(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 5, 7, 9, 0xff, 3, 3})
	f.Add([]byte{0, 1, 0, 3, 2, 0, 0xff, 1, 0, 4, 1, 4, 0, 3, 2, 5, 1, 1, 1, 0, 3, 1, 2, 3})
	f.Add([]byte{0, 0xfe, 1, 1, 0, 0, 2, 0, 2, 0, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := newRefNeighborTable()
		d := new(NeighborTable)
		var ids []int
		var pts []geom.Point
		var seen IDMarks // one dedup set across every view of the run
		now := 0.0
		for len(data) > 0 {
			switch next() % 4 {
			case 0: // observe: id (signed), clock advance, advertised list
				info := NeighborInfo{ID: int(int8(next())) % 16}
				now += float64(next() % 4)
				info.LastSeen = now
				info.Pos = geom.Pt(float64(next()), now)
				for k := next() % 5; k > 0; k-- {
					nid := int(int8(next())) % 20
					info.Neighbors = append(info.Neighbors, NeighborNeighbor{ID: nid, Pos: geom.Pt(float64(nid), 1)})
				}
				m.Observe(info)
				d.Observe(info)
			case 1:
				checkExpireAgrees(t, m, d, now-float64(next()%8))
			case 2:
				m.Reset()
				d.Reset()
			case 3: // two-hop view into reused buffers
				self := int(int8(next())) % 24
				wi, wp := m.TwoHopPointsAt(self, geom.Pt(0.5, 0.5), math.Inf(-1))
				ids, pts = d.AppendTwoHop(ids[:0], pts[:0], self, geom.Pt(0.5, 0.5), &seen)
				if !reflect.DeepEqual(wi, ids) || !reflect.DeepEqual(wp, pts) {
					t.Fatalf("AppendTwoHop(%d): ref %v %v, table %v %v", self, wi, wp, ids, pts)
				}
			}
			if m.Len() != len(d.rows) {
				t.Fatalf("Len: ref %d, table %d", m.Len(), len(d.rows))
			}
		}
		checkTablesAgree(t, m, d, 20)
	})
}

// TestNeighborTableRelabelInvariance asserts the table is insensitive to
// id labels: relabeling every id through a random bijection relabels
// the two-hop view without changing its geometry.
func TestNeighborTableRelabelInvariance(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*577 + 3))
		n := 6 + rng.Intn(20)
		perm := rng.Perm(n) // bijection id -> perm[id]

		orig := new(NeighborTable)
		rel := new(NeighborTable)
		pos := make([]geom.Point, n)
		for id := range pos {
			pos[id] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		for step := 0; step < 60; step++ {
			id := rng.Intn(n - 1)
			adv := make([]NeighborNeighbor, rng.Intn(4))
			for i := range adv {
				nid := rng.Intn(n)
				adv[i] = NeighborNeighbor{ID: nid, Pos: pos[nid]}
			}
			info := NeighborInfo{ID: id, Pos: pos[id], LastSeen: float64(step)}
			info.Neighbors = adv
			orig.Observe(info)
			radv := make([]NeighborNeighbor, len(adv))
			for i, nn := range adv {
				radv[i] = NeighborNeighbor{ID: perm[nn.ID], Pos: nn.Pos}
			}
			rel.Observe(NeighborInfo{ID: perm[id], Pos: pos[id], LastSeen: float64(step), Neighbors: radv})
		}

		self := n - 1
		var seen IDMarks // shared by both tables, as core shares one per world
		ids, pts := orig.AppendTwoHop(nil, nil, self, pos[self], &seen)
		rids, rpts := rel.AppendTwoHop(nil, nil, perm[self], pos[self], &seen)
		if len(ids) != len(rids) {
			t.Fatalf("trial %d: size %d vs %d", trial, len(ids), len(rids))
		}
		// Same id set under the bijection, and each id keeps its point.
		want := map[int]geom.Point{}
		for i, id := range ids {
			want[perm[id]] = pts[i]
		}
		for i, rid := range rids {
			p, ok := want[rid]
			if !ok || p != rpts[i] {
				t.Fatalf("trial %d: relabeled id %d missing or moved", trial, rid)
			}
		}
	}
}

// TestLocationTableRefEquivalence churns the location table with fresh,
// stale and negative-id updates against a plain map holding the
// freshness rule, then checks reset.
func TestLocationTableRefEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*911 + 1))
		idSpace := 4 + rng.Intn(28)
		ref := map[int]LocationEntry{}
		d := new(LocationTable)
		for step := 0; step < 300; step++ {
			id := rng.Intn(idSpace+6) - 2
			pos := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			ts := rng.Float64() * 50 // deliberately non-monotone: stale updates
			want := false
			if cur, ok := ref[id]; id >= 0 && (!ok || ts > cur.Time) {
				ref[id] = LocationEntry{Pos: pos, Time: ts}
				want = true
			}
			if got := d.Update(id, pos, ts); got != want {
				t.Fatalf("trial %d step %d: Update(%d) changed=%v, ref %v", trial, step, id, got, want)
			}
		}
		if len(ref) != len(d.entries) {
			t.Fatalf("Len: ref %d, table %d", len(ref), len(d.entries))
		}
		wantIDs := make([]int, 0, len(ref))
		for id := range ref {
			wantIDs = append(wantIDs, id)
		}
		sort.Ints(wantIDs)
		if !reflect.DeepEqual(wantIDs, knownIDs(d)) {
			t.Fatalf("ids: ref %v, table %v", wantIDs, knownIDs(d))
		}
		for id := -2; id <= idSpace+4; id++ {
			we, wok := ref[id]
			de, dok := d.Get(id)
			if wok != dok || we != de {
				t.Fatalf("Get(%d): ref %v %v, table %v %v", id, we, wok, de, dok)
			}
		}
		d.Reset()
		if len(d.entries) != 0 {
			t.Fatal("Reset should empty the table")
		}
		if _, ok := d.Get(wantIDs[0]); ok {
			t.Fatal("Reset must invalidate rows")
		}
	}
}

// TestNeighborTableReset: rows from before a reset must be invisible,
// and id reuse afterwards (on recycled row storage) must behave like a
// fresh table.
func TestNeighborTableReset(t *testing.T) {
	d := new(NeighborTable)
	d.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(1, 1), LastSeen: 5,
		Neighbors: []NeighborNeighbor{{ID: 3, Pos: geom.Pt(3, 3)}}})
	d.Observe(NeighborInfo{ID: 2, Pos: geom.Pt(2, 2), LastSeen: 5})
	d.Reset()
	if len(d.rows) != 0 {
		t.Fatalf("Len after reset = %d", len(d.rows))
	}
	if _, ok := d.Get(1); ok {
		t.Fatal("stale row visible after reset")
	}
	d.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(9, 9), LastSeen: 7})
	r, ok := d.Get(1)
	if !ok || !r.Pos.Eq(geom.Pt(9, 9)) || len(r.Neighbors) != 0 {
		t.Fatalf("reused id row = %+v, ok=%v", r, ok)
	}
	if ids := d.Expire(10); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("Expire after reuse = %v", ids)
	}
}

// TestTablesIgnoreNegativeIDs: negative ids are not node ids. The
// location table rejects them, the neighbor table keeps no row for
// them, and the two-hop view never emits one, however many rows
// advertise it.
func TestTablesIgnoreNegativeIDs(t *testing.T) {
	lt := new(LocationTable)
	if lt.Update(-1, geom.Pt(1, 1), 1) {
		t.Error("Update(-1) reported a change")
	}
	if len(lt.entries) != 0 || len(knownIDs(lt)) != 0 {
		t.Errorf("table holds %v after Update(-1)", knownIDs(lt))
	}
	if _, ok := lt.Get(-1); ok {
		t.Error("Get(-1) found a row")
	}

	nt := new(NeighborTable)
	nt.Observe(NeighborInfo{ID: -1, Pos: geom.Pt(1, 1), LastSeen: 1})
	if len(nt.rows) != 0 {
		t.Errorf("Observe(-1) stored a row")
	}
	bogus := []NeighborNeighbor{{ID: -1, Pos: geom.Pt(7, 7)}, {ID: 4, Pos: geom.Pt(4, 0)}}
	nt.Observe(NeighborInfo{ID: 1, Pos: geom.Pt(1, 0), LastSeen: 1, Neighbors: bogus})
	nt.Observe(NeighborInfo{ID: 2, Pos: geom.Pt(2, 0), LastSeen: 1, Neighbors: bogus})
	ids, _ := nt.AppendTwoHop(nil, nil, 0, geom.Pt(0, 0), new(IDMarks))
	if want := []int{0, 1, 4, 2}; !reflect.DeepEqual(ids, want) {
		t.Errorf("two-hop ids = %v, want %v", ids, want)
	}
}
