package dtn

import (
	"sort"

	"glr/internal/geom"
)

// The neighbor and location tables come in storage backends sharing one
// API:
//
//   - The dense backends (NewDenseLocationTable/NewDenseNeighborTable)
//     store rows in per-world id-indexed arrays with generation stamps:
//     a row is live iff its stamp equals the table generation, so upsert
//     and whole-table reset are O(1) and no hashing or per-row boxing
//     happens on the beacon hot path. A sorted live-id list keeps
//     iteration in ascending id order.
//   - The compact neighbor backend (NewCompactNeighborTable) keeps the
//     dense backend's hot paths — row-owned storage, the sorted live
//     list, allocation-free advertise/two-hop appends — but indexes rows
//     through a small id→slot map, so a node's table costs O(its
//     neighborhood) instead of O(world size). The dense backend's
//     id-indexed arrays are O(n) per node and therefore O(n²) per world,
//     which is the memory wall for 10k–100k-node runs; compact tables
//     are what giant worlds use, together with the map-backed location
//     table (NewLocationTable), which is O(knowledge) per node.
//
// All backends produce byte-identical results for identical operation
// sequences (asserted by property tests in tables_dense_test.go against
// map-backed references); the simulator picks the backend from the world
// size.

// LocationEntry is one row of a node's location table: where a node was
// last known to be, and when that knowledge originated (§2.3.1: "Each node
// keeps a table of other nodes' location information together with their
// IDs and time stamps").
type LocationEntry struct {
	Pos  geom.Point
	Time float64
}

// LocationTable maps node ids to their freshest known location. The zero
// value is not usable; create with NewLocationTable (map backend) or
// NewDenseLocationTable (dense backend).
type LocationTable struct {
	entries map[int]LocationEntry // map backend; nil in dense mode

	// Dense backend: rows[id] is live iff rowGen[id] == gen; live holds
	// the live ids in ascending order.
	rows   []LocationEntry
	rowGen []uint64
	gen    uint64
	live   []int
}

// NewLocationTable returns an empty map-backed table.
func NewLocationTable() *LocationTable {
	return &LocationTable{entries: make(map[int]LocationEntry)}
}

// NewDenseLocationTable returns an empty dense table pre-sized for node
// ids in [0, n). Ids beyond n still work (the arrays grow on demand).
func NewDenseLocationTable(n int) *LocationTable {
	return &LocationTable{
		rows:   make([]LocationEntry, n),
		rowGen: make([]uint64, n),
		gen:    1,
	}
}

// dense reports whether the table uses the dense backend.
func (t *LocationTable) dense() bool { return t.entries == nil }

// ensure grows the dense arrays to cover id.
func (t *LocationTable) ensure(id int) {
	for id >= len(t.rows) {
		t.rows = append(t.rows, LocationEntry{})
		t.rowGen = append(t.rowGen, 0)
	}
}

// Len returns the number of known nodes.
func (t *LocationTable) Len() int {
	if t.dense() {
		return len(t.live)
	}
	return len(t.entries)
}

// Reset empties the table in O(1) (dense backend) so pooled tables can
// be reused without reallocation.
func (t *LocationTable) Reset() {
	if t.dense() {
		t.gen++
		t.live = t.live[:0]
		return
	}
	clear(t.entries)
}

// insertSorted adds id to the sorted live list (id known to be absent).
func insertSorted(live []int, id int) []int {
	i := sort.SearchInts(live, id)
	live = append(live, 0)
	copy(live[i+1:], live[i:])
	live[i] = id
	return live
}

// removeSorted drops id from the sorted live list if present.
func removeSorted(live []int, id int) []int {
	i := sort.SearchInts(live, id)
	if i < len(live) && live[i] == id {
		copy(live[i:], live[i+1:])
		live = live[:len(live)-1]
	}
	return live
}

// Update records pos for node id if the timestamp is fresher than the
// current entry. It reports whether the table changed.
func (t *LocationTable) Update(id int, pos geom.Point, time float64) bool {
	if t.dense() {
		if id < 0 {
			return false
		}
		t.ensure(id)
		if t.rowGen[id] == t.gen {
			if time <= t.rows[id].Time {
				return false
			}
			t.rows[id] = LocationEntry{Pos: pos, Time: time}
			return true
		}
		t.rowGen[id] = t.gen
		t.rows[id] = LocationEntry{Pos: pos, Time: time}
		t.live = insertSorted(t.live, id)
		return true
	}
	if cur, ok := t.entries[id]; ok && time <= cur.Time {
		return false
	}
	t.entries[id] = LocationEntry{Pos: pos, Time: time}
	return true
}

// Get returns the entry for id.
func (t *LocationTable) Get(id int) (LocationEntry, bool) {
	if t.dense() {
		if id < 0 || id >= len(t.rows) || t.rowGen[id] != t.gen {
			return LocationEntry{}, false
		}
		return t.rows[id], true
	}
	e, ok := t.entries[id]
	return e, ok
}

// Merge adopts every entry of other that is fresher than ours, returning
// the number of rows updated. This is the "location tables should be
// exchanged whenever two nodes meet" mechanism (the paper measures the
// lighter piggyback variant; Merge supports the full exchange).
func (t *LocationTable) Merge(other *LocationTable) int {
	n := 0
	if other.dense() {
		for _, id := range other.live {
			if e := other.rows[id]; t.Update(id, e.Pos, e.Time) {
				n++
			}
		}
		return n
	}
	for id, e := range other.entries {
		if t.Update(id, e.Pos, e.Time) {
			n++
		}
	}
	return n
}

// IDs returns the known node ids in ascending order.
func (t *LocationTable) IDs() []int {
	if t.dense() {
		return append([]int(nil), t.live...)
	}
	out := make([]int, 0, len(t.entries))
	for id := range t.entries {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
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
// periodic beacons. The zero value is not usable; create with
// NewDenseNeighborTable (dense backend) or NewCompactNeighborTable
// (compact backend for giant worlds).
//
// The table owns the Neighbors storage of its rows: Observe copies the
// advertised list into a row-owned backing array (reused across
// refreshes of the same neighbor), so callers may pool and recycle the
// beacon payload the info came from. Conversely, rows handed out by Get
// and Snapshot alias that row-owned storage and must not be retained
// across later Observe calls for the same id.
type NeighborTable struct {
	// Dense backend: rows[id] is live iff rowGen[id] == gen; live holds
	// the live ids ascending; expired is the scratch Expire returns.
	rows    []NeighborInfo
	rowGen  []uint64
	gen     uint64
	live    []int
	expired []int

	// mark/markGen implement allocation-free dedup for AppendTwoHop:
	// id already emitted iff mark[id] == markGen.
	mark    []uint64
	markGen uint64

	// Compact backend: slot maps id → index into rows (rowGen/gen unused);
	// freeSlots recycles dead rows together with their Neighbors backing
	// arrays; markM replaces the id-indexed mark array for AppendTwoHop
	// dedup. live/expired are shared with the dense backend.
	slot      map[int]int32
	freeSlots []int32
	markM     map[int]uint64
}

// NewDenseNeighborTable returns an empty dense table pre-sized for node
// ids in [0, n). Ids beyond n still work (the arrays grow on demand).
func NewDenseNeighborTable(n int) *NeighborTable {
	return &NeighborTable{
		rows:   make([]NeighborInfo, n),
		rowGen: make([]uint64, n),
		gen:    1,
		mark:   make([]uint64, n),
	}
}

// NewCompactNeighborTable returns an empty compact table: the dense
// backend's row-owned storage and sorted-live iteration, indexed through
// an id→slot map so memory is O(neighborhood) instead of O(world size).
func NewCompactNeighborTable() *NeighborTable {
	return &NeighborTable{
		slot:  make(map[int]int32),
		markM: make(map[int]uint64),
	}
}

// compact reports whether the table uses the compact (slot-mapped) backend.
func (t *NeighborTable) compact() bool { return t.slot != nil }

// liveRow returns the row for an id known to be live.
func (t *NeighborTable) liveRow(id int) *NeighborInfo {
	if t.compact() {
		return &t.rows[t.slot[id]]
	}
	return &t.rows[id]
}

// takeSlot returns a free row index, growing rows if none is banked
// (compact backend). Recycled rows keep their Neighbors backing array.
func (t *NeighborTable) takeSlot() int32 {
	if n := len(t.freeSlots); n > 0 {
		si := t.freeSlots[n-1]
		t.freeSlots = t.freeSlots[:n-1]
		return si
	}
	t.rows = append(t.rows, NeighborInfo{})
	return int32(len(t.rows) - 1)
}

// kill releases a live id's row storage; the caller maintains the live
// list.
func (t *NeighborTable) kill(id int) {
	if t.compact() {
		t.freeSlots = append(t.freeSlots, t.slot[id])
		delete(t.slot, id)
		return
	}
	t.rowGen[id] = 0
}

// ensure grows the dense arrays to cover id.
func (t *NeighborTable) ensure(id int) {
	for id >= len(t.rows) {
		t.rows = append(t.rows, NeighborInfo{})
		t.rowGen = append(t.rowGen, 0)
	}
}

// Len returns the number of live rows.
func (t *NeighborTable) Len() int {
	return len(t.live)
}

// Reset empties the table; row-owned Neighbors backing arrays stay
// allocated for reuse (dense: O(1) generation bump; compact: slots are
// banked for recycling).
func (t *NeighborTable) Reset() {
	if t.compact() {
		for _, id := range t.live {
			t.freeSlots = append(t.freeSlots, t.slot[id])
		}
		clear(t.slot)
		clear(t.markM)
		t.live = t.live[:0]
		return
	}
	t.gen++
	t.live = t.live[:0]
}

// Observe inserts or refreshes a neighbor row. The advertised Neighbors
// list is copied into row-owned storage; the caller keeps ownership of
// info.Neighbors.
func (t *NeighborTable) Observe(info NeighborInfo) {
	id := info.ID
	if id < 0 {
		return
	}
	var row *NeighborInfo
	if t.compact() {
		si, ok := t.slot[id]
		if !ok {
			si = t.takeSlot()
			t.slot[id] = si
			t.live = insertSorted(t.live, id)
		}
		row = &t.rows[si]
	} else {
		t.ensure(id)
		if t.rowGen[id] != t.gen {
			t.rowGen[id] = t.gen
			t.live = insertSorted(t.live, id)
		}
		row = &t.rows[id]
	}
	nbrs := append(row.Neighbors[:0], info.Neighbors...)
	*row = info
	row.Neighbors = nbrs
}

// Get returns the row for id. The row's Neighbors slice aliases table-
// owned storage (see the type doc).
func (t *NeighborTable) Get(id int) (NeighborInfo, bool) {
	if t.compact() {
		si, ok := t.slot[id]
		if !ok {
			return NeighborInfo{}, false
		}
		return t.rows[si], true
	}
	if id < 0 || id >= len(t.rows) || t.rowGen[id] != t.gen {
		return NeighborInfo{}, false
	}
	return t.rows[id], true
}

// Remove drops the row for id.
func (t *NeighborTable) Remove(id int) {
	if t.compact() {
		if _, ok := t.slot[id]; !ok {
			return
		}
	} else if id < 0 || id >= len(t.rows) || t.rowGen[id] != t.gen {
		return
	}
	t.kill(id)
	t.live = removeSorted(t.live, id)
}

// Expire drops every row last seen at or before deadline and returns the
// expired ids in ascending order. The returned slice is scratch reused
// by the next Expire call; callers must not retain it.
func (t *NeighborTable) Expire(deadline float64) []int {
	t.expired = t.expired[:0]
	keep := t.live[:0]
	for _, id := range t.live {
		if t.liveRow(id).LastSeen <= deadline {
			t.kill(id)
			t.expired = append(t.expired, id)
		} else {
			keep = append(keep, id)
		}
	}
	t.live = keep
	return t.expired
}

// Snapshot returns all live rows sorted by id. The slice is freshly
// allocated; row Neighbors alias table-owned storage. Hot paths should
// prefer AppendAdvertised/AppendTwoHop.
func (t *NeighborTable) Snapshot() []NeighborInfo {
	out := make([]NeighborInfo, 0, len(t.live))
	for _, id := range t.live {
		out = append(out, *t.liveRow(id))
	}
	return out
}

// AppendAdvertised appends the (id, position) pair of every live row in
// ascending id order — the list a beacon advertises — and returns the
// extended slice. With a caller-reused buffer it allocates nothing.
func (t *NeighborTable) AppendAdvertised(buf []NeighborNeighbor) []NeighborNeighbor {
	for _, id := range t.live {
		buf = append(buf, NeighborNeighbor{ID: id, Pos: t.liveRow(id).Pos})
	}
	return buf
}

// TwoHopPoints assembles the distance-≤2 neighborhood point set around a
// node at selfPos: the node itself, every live neighbor, and every
// neighbor-of-neighbor (deduplicated, excluding ids in exclude). It
// returns parallel slices of ids and positions with the node itself first.
// This is the input the GLR protocol triangulates.
func (t *NeighborTable) TwoHopPoints(selfID int, selfPos geom.Point) (ids []int, pts []geom.Point) {
	return t.AppendTwoHop(nil, nil, selfID, selfPos)
}

// AppendTwoHop is TwoHopPoints appending into caller-supplied slices
// (pass buf[:0] to reuse); it dedups with generation-stamped marks
// instead of a per-call map, so a warm call allocates nothing. Output
// order: self first, then rows in ascending id order, each followed by
// its unseen advertised neighbors in advertisement order.
func (t *NeighborTable) AppendTwoHop(ids []int, pts []geom.Point, selfID int, selfPos geom.Point) ([]int, []geom.Point) {
	ids = append(ids, selfID)
	pts = append(pts, selfPos)
	t.markGen++
	t.markSeen(selfID)
	for _, id := range t.live {
		r := t.liveRow(id)
		if !t.seen(id) {
			t.markSeen(id)
			ids = append(ids, id)
			pts = append(pts, r.Pos)
		}
		for _, nn := range r.Neighbors {
			if t.seen(nn.ID) {
				continue
			}
			t.markSeen(nn.ID)
			ids = append(ids, nn.ID)
			pts = append(pts, nn.Pos)
		}
	}
	return ids, pts
}

// AppendTwoHopAt is AppendTwoHop as the table will stand after
// Expire(deadline): rows last seen at or before deadline are skipped —
// along with their advertised neighbors — without being dropped. The
// output is byte-identical to calling Expire(deadline) followed by
// AppendTwoHop, but the table itself is not mutated (only the dedup
// marks advance, which no reader observes), so callers
// may preview the view a future route check will build without
// disturbing the run. Not safe for concurrent use, like every
// NeighborTable method.
func (t *NeighborTable) AppendTwoHopAt(ids []int, pts []geom.Point, selfID int, selfPos geom.Point, deadline float64) ([]int, []geom.Point) {
	ids = append(ids, selfID)
	pts = append(pts, selfPos)
	t.markGen++
	t.markSeen(selfID)
	for _, id := range t.live {
		r := t.liveRow(id)
		if r.LastSeen <= deadline {
			continue
		}
		if !t.seen(id) {
			t.markSeen(id)
			ids = append(ids, id)
			pts = append(pts, r.Pos)
		}
		for _, nn := range r.Neighbors {
			if t.seen(nn.ID) {
				continue
			}
			t.markSeen(nn.ID)
			ids = append(ids, nn.ID)
			pts = append(pts, nn.Pos)
		}
	}
	return ids, pts
}

// seen reports whether id was already emitted in the current AppendTwoHop
// pass.
func (t *NeighborTable) seen(id int) bool {
	if t.markM != nil {
		return t.markM[id] == t.markGen
	}
	return id >= 0 && id < len(t.mark) && t.mark[id] == t.markGen
}

// markSeen stamps id as emitted in the current AppendTwoHop pass. The
// markGen bump preceding every pass keeps stale stamps — including the
// compact map's zero value for absent ids — from reading as seen.
func (t *NeighborTable) markSeen(id int) {
	if id < 0 {
		return
	}
	if t.markM != nil {
		t.markM[id] = t.markGen
		return
	}
	for id >= len(t.mark) {
		t.mark = append(t.mark, 0)
	}
	t.mark[id] = t.markGen
}
