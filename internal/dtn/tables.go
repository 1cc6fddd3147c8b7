package dtn

import (
	"slices"

	"glr/internal/geom"
)

// A node's state is two small tables, each sized by what the node knows
// rather than by the world: the location table costs O(knowledge) and
// the neighbor table O(neighborhood), so a 50-node and a 10 000-node
// world run the same code. Property tests in tables_ref_test.go check
// both against map-backed references.

// LocationEntry is one row of a node's location table: where a node was
// last known to be, and when that knowledge originated (§2.3.1: "Each node
// keeps a table of other nodes' location information together with their
// IDs and time stamps").
type LocationEntry struct {
	Pos  geom.Point
	Time float64
}

// LocationTable maps node ids to their freshest known location. The zero
// value is an empty table; the map is allocated by the first Update,
// which keeps world set-up free of per-node maps.
type LocationTable struct {
	entries map[int]LocationEntry
}

// Reset empties the table, keeping its storage for reuse.
func (t *LocationTable) Reset() { clear(t.entries) }

// Update records pos for node id if the timestamp is fresher than the
// current entry. It reports whether the table changed. Negative ids are
// not node ids and are rejected.
func (t *LocationTable) Update(id int, pos geom.Point, time float64) bool {
	if id < 0 {
		return false
	}
	if cur, ok := t.entries[id]; ok && time <= cur.Time {
		return false
	}
	if t.entries == nil {
		t.entries = make(map[int]LocationEntry)
	}
	t.entries[id] = LocationEntry{Pos: pos, Time: time}
	return true
}

// Get returns the entry for id.
func (t *LocationTable) Get(id int) (LocationEntry, bool) {
	e, ok := t.entries[id]
	return e, ok
}

// NeighborNeighbor is a (node, position) pair inside a beacon: one of the
// beaconing node's own 1-hop neighbors. Beacons carrying these give every
// listener its distance-2 neighborhood, matching "nodes collect distance
// two neighborhood information to construct LDTG in the experiments".
type NeighborNeighbor struct {
	ID  int
	Pos geom.Point
}

// NeighborInfo is one row of a node's neighbor table.
type NeighborInfo struct {
	ID        int
	Pos       geom.Point
	LastSeen  float64
	Neighbors []NeighborNeighbor // the neighbor's own 1-hop neighborhood
}

// NeighborTable tracks currently-audible neighbors with expiry, fed by
// periodic beacons. The zero value is an empty table.
//
// Rows live in one slice sorted by id, found by binary search, so the
// table costs O(neighborhood) and iterates in id order.
//
// A row's Neighbors is the advertised list exactly as Observe was given
// it, read in place: every receiver of one beacon shares the sender's
// list, and no row holds a copy.
// The list must not be modified while a row may read it, that is until
// Expire drops the row; a caller that keeps a row's list past that point
// copies it.
type NeighborTable struct {
	rows    []NeighborInfo // live rows in ascending id order
	expired []int          // scratch Expire returns
}

// find returns the index of id's row, or the index it would be inserted
// at, and whether the row is live.
func (t *NeighborTable) find(id int) (int, bool) {
	lo, hi := 0, len(t.rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.rows[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.rows) && t.rows[lo].ID == id
}

// Reset empties the table; row storage is kept for reuse.
func (t *NeighborTable) Reset() {
	clear(t.rows)
	t.rows = t.rows[:0]
}

// Observe inserts or refreshes a neighbor row. The row stores
// info.Neighbors as given, without a copy (see the type doc). Negative
// ids are not node ids and are ignored.
func (t *NeighborTable) Observe(info NeighborInfo) {
	if info.ID < 0 {
		return
	}
	if i, ok := t.find(info.ID); ok {
		t.rows[i] = info
	} else {
		t.rows = slices.Insert(t.rows, i, info)
	}
}

// Get returns the row for id. The row's Neighbors is the list Observe
// stored (see the type doc).
func (t *NeighborTable) Get(id int) (NeighborInfo, bool) {
	if i, ok := t.find(id); ok {
		return t.rows[i], true
	}
	return NeighborInfo{}, false
}

// Expire drops every row last seen at or before deadline and returns the
// expired ids in ascending order. The returned slice is scratch reused
// by the next Expire call; callers must not retain it.
func (t *NeighborTable) Expire(deadline float64) []int {
	t.expired = t.expired[:0]
	keep := 0
	for i := range t.rows {
		if t.rows[i].LastSeen <= deadline {
			t.expired = append(t.expired, t.rows[i].ID)
			continue
		}
		t.rows[keep] = t.rows[i]
		keep++
	}
	if keep < len(t.rows) {
		// Drop the dead rows' lists so the table keeps no sender's
		// array reachable.
		clear(t.rows[keep:])
		t.rows = t.rows[:keep]
	}
	return t.expired
}

// AppendAdvertised appends the (id, position) pair of every live row in
// ascending id order — the list a beacon advertises — and returns the
// extended slice, growing buf at most once.
func (t *NeighborTable) AppendAdvertised(buf []NeighborNeighbor) []NeighborNeighbor {
	buf = slices.Grow(buf, len(t.rows))
	for i := range t.rows {
		buf = append(buf, NeighborNeighbor{ID: t.rows[i].ID, Pos: t.rows[i].Pos})
	}
	return buf
}

// AppendTwoHop appends the distance-≤2 neighborhood point set around a
// node at selfPos — the input the GLR protocol triangulates — to
// caller-supplied parallel slices of ids and positions (pass buf[:0] to
// reuse) and returns them. Output order: self first, then rows in
// ascending id order, each followed by its advertised neighbors not yet
// emitted, in advertisement order. Advertised negative ids are not node
// ids and are skipped. seen is the dedup scratch, emptied here; one set
// may serve any number of tables. A warm call allocates nothing.
func (t *NeighborTable) AppendTwoHop(ids []int, pts []geom.Point, selfID int, selfPos geom.Point, seen *IDMarks) ([]int, []geom.Point) {
	ids = append(ids, selfID)
	pts = append(pts, selfPos)
	seen.Clear()
	if selfID >= 0 {
		seen.Mark(selfID)
	}
	for i := range t.rows {
		r := &t.rows[i]
		if seen.Mark(r.ID) {
			ids = append(ids, r.ID)
			pts = append(pts, r.Pos)
		}
		for _, nn := range r.Neighbors {
			if nn.ID >= 0 && seen.Mark(nn.ID) {
				ids = append(ids, nn.ID)
				pts = append(pts, nn.Pos)
			}
		}
	}
	return ids, pts
}

// IDMarks is a set of nonnegative ids emptied in O(1): an id is in the
// set while its stamp equals the current epoch, which Clear advances.
// It grows to the largest id marked. The zero value is empty.
type IDMarks struct {
	stamp []uint32
	epoch uint32
}

// Clear empties the set.
func (s *IDMarks) Clear() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps of old epochs would read as current
		clear(s.stamp)
		s.epoch = 1
	}
}

// Mark adds id, which must be nonnegative, and reports whether it was
// absent.
func (s *IDMarks) Mark(id int) bool {
	if s.epoch == 0 { // zero value: no stamp is current yet
		s.epoch = 1
	}
	if id >= len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, max(id+1, 2*len(s.stamp))-len(s.stamp))...)
	}
	if s.stamp[id] == s.epoch {
		return false
	}
	s.stamp[id] = s.epoch
	return true
}
