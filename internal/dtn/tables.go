package dtn

import "glr/internal/geom"

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

// Len returns the number of known nodes.
func (t *LocationTable) Len() int { return len(t.entries) }

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
// table costs O(neighborhood) and iterates in id order. Rows beyond the
// slice length keep the Neighbors backing arrays of dead rows for reuse,
// so a warm table allocates nothing.
//
// The table owns the Neighbors storage of its rows: Observe copies the
// advertised list into a row-owned backing array (reused across
// refreshes of the same neighbor), so callers may pool and recycle the
// beacon payload the info came from. Conversely, rows handed out by Get
// alias that row-owned storage and must not be retained across later
// Observe calls for the same id.
type NeighborTable struct {
	rows    []NeighborInfo   // live rows in ascending id order
	expired []int            // scratch Expire returns
	seen    map[int]struct{} // AppendTwoHop's dedup set, cleared per call
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

// Len returns the number of live rows.
func (t *NeighborTable) Len() int { return len(t.rows) }

// Reset empties the table; row storage is kept for reuse.
func (t *NeighborTable) Reset() { t.rows = t.rows[:0] }

// Observe inserts or refreshes a neighbor row. The advertised Neighbors
// list is copied into row-owned storage; the caller keeps ownership of
// info.Neighbors. Negative ids are not node ids and are ignored.
func (t *NeighborTable) Observe(info NeighborInfo) {
	if info.ID < 0 {
		return
	}
	i, ok := t.find(info.ID)
	if !ok {
		// Open a slot at i, rotating the spare row past the end (and
		// its Neighbors array) into it.
		n := len(t.rows)
		if n < cap(t.rows) {
			t.rows = t.rows[:n+1]
		} else {
			t.rows = append(t.rows, NeighborInfo{})
		}
		spare := t.rows[n]
		copy(t.rows[i+1:], t.rows[i:n])
		t.rows[i] = spare
	}
	row := &t.rows[i]
	nbrs := append(row.Neighbors[:0], info.Neighbors...)
	*row = info
	row.Neighbors = nbrs
}

// Get returns the row for id. The row's Neighbors slice aliases table-
// owned storage (see the type doc).
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
		if keep != i {
			// Swap, not copy, so the dead row's Neighbors array
			// survives past the end for reuse.
			t.rows[keep], t.rows[i] = t.rows[i], t.rows[keep]
		}
		keep++
	}
	t.rows = t.rows[:keep]
	return t.expired
}

// AppendAdvertised appends the (id, position) pair of every live row in
// ascending id order — the list a beacon advertises — and returns the
// extended slice. With a caller-reused buffer it allocates nothing.
func (t *NeighborTable) AppendAdvertised(buf []NeighborNeighbor) []NeighborNeighbor {
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
// ids and are skipped. A warm call allocates nothing.
func (t *NeighborTable) AppendTwoHop(ids []int, pts []geom.Point, selfID int, selfPos geom.Point) ([]int, []geom.Point) {
	ids = append(ids, selfID)
	pts = append(pts, selfPos)
	if t.seen == nil {
		t.seen = make(map[int]struct{})
	}
	clear(t.seen)
	t.seen[selfID] = struct{}{}
	for i := range t.rows {
		r := &t.rows[i]
		if _, ok := t.seen[r.ID]; !ok {
			t.seen[r.ID] = struct{}{}
			ids = append(ids, r.ID)
			pts = append(pts, r.Pos)
		}
		for _, nn := range r.Neighbors {
			if nn.ID < 0 {
				continue
			}
			if _, ok := t.seen[nn.ID]; ok {
				continue
			}
			t.seen[nn.ID] = struct{}{}
			ids = append(ids, nn.ID)
			pts = append(pts, nn.Pos)
		}
	}
	return ids, pts
}
