// Package spatial provides a uniform-grid point index for neighborhood
// queries over moving entities. The wireless medium uses it to resolve
// frame receptions, carrier sensing, and interference over only the
// radios and transmissions near a point, instead of scanning every
// entity in the simulation.
//
// The grid hashes the plane into square cells of a fixed edge length
// (the medium uses the carrier-sense range, so any disk query of that
// radius touches at most a 3×3 block of cells). Entries are identified
// by small dense nonnegative integer ids; positions are cached at
// insert/update time, so a query reflects the positions last pushed
// into the index — callers tracking moving points must refresh entries
// (see Update) often enough that the staleness stays within whatever
// slack they add to query radii.
//
// Storage is a dense window of cell buckets covering the bounding box
// of the cells in use (simulation regions are bounded, so the window is
// small and bucket fetches are array indexing, not map lookups), with a
// map overflow for pathological outliers beyond the window cap.
package spatial

import (
	"fmt"
	"math"

	"glr/internal/geom"
)

// Cell addresses one grid square: the cell with corner
// (X·size, Y·size) covering [X·size, (X+1)·size) × [Y·size, (Y+1)·size).
type Cell struct {
	X, Y int
}

// key packs a cell into a single integer for the overflow map and for
// compact locators. Coordinates are truncated to int32, which at any
// practical cell size covers regions far beyond float64 simulation
// scales.
func (c Cell) key() uint64 {
	return uint64(uint32(int32(c.X)))<<32 | uint64(uint32(int32(c.Y)))
}

// cellOfKey unpacks key.
func cellOfKey(k uint64) Cell {
	return Cell{X: int(int32(uint32(k >> 32))), Y: int(int32(uint32(k)))}
}

// item is one indexed entry as stored in a cell bucket. The position is
// kept inline so queries never touch the id table.
type item struct {
	id int
	p  geom.Point
}

// locator records where an id currently lives: its cell (packed) and
// its index within that cell's bucket. idx < 0 means "not indexed".
type locator struct {
	key uint64
	idx int
}

// maxDenseSpan caps the dense window extent per axis, bounding window
// memory at maxDenseSpan² slice headers; cells beyond a full window
// fall back to the overflow map.
const maxDenseSpan = 512

// Grid is a uniform-grid point index. The zero value is not usable;
// construct with NewGrid. Grid is not safe for concurrent use.
type Grid struct {
	size float64
	inv  float64

	// Dense window: buckets for cells in [ox, ox+w) × [oy, oy+h),
	// bucket of (cx, cy) at dense[(cy-oy)*w + (cx-ox)]. Empty until the
	// first insert.
	ox, oy, w, h int
	dense        [][]item

	// overflow holds buckets for cells outside the window once the
	// window has hit maxDenseSpan. Usually empty.
	overflow map[uint64][]item

	// where maps id → locator, indexed directly (ids are small dense
	// nonnegative integers).
	where []locator
}

// NewGrid returns an empty index with the given cell edge length.
func NewGrid(cellSize float64) (*Grid, error) {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		return nil, fmt.Errorf("spatial: cell size %v must be positive and finite", cellSize)
	}
	return &Grid{
		size:     cellSize,
		inv:      1 / cellSize,
		overflow: make(map[uint64][]item),
	}, nil
}

// CellSize returns the cell edge length.
func (g *Grid) CellSize() float64 { return g.size }

// Len returns the number of indexed entries.
func (g *Grid) Len() int {
	n := 0
	for _, loc := range g.where {
		if loc.idx >= 0 {
			n++
		}
	}
	return n
}

// CellOf returns the cell containing p.
func (g *Grid) CellOf(p geom.Point) Cell {
	return Cell{X: int(math.Floor(p.X * g.inv)), Y: int(math.Floor(p.Y * g.inv))}
}

// locOf returns the locator slot for id, or nil when id was never
// indexed.
func (g *Grid) locOf(id int) *locator {
	if id < 0 || id >= len(g.where) {
		return nil
	}
	return &g.where[id]
}

// Insert adds id at position p. Inserting an id that is already present
// is an error, as is a negative id; use Update to move an existing
// entry.
func (g *Grid) Insert(id int, p geom.Point) error {
	if id < 0 {
		return fmt.Errorf("spatial: id %d must be nonnegative", id)
	}
	if loc := g.locOf(id); loc != nil && loc.idx >= 0 {
		return fmt.Errorf("spatial: id %d already indexed", id)
	}
	g.place(id, p)
	return nil
}

// Update moves id to position p, inserting it if absent. When the new
// position lands in the entry's current cell only the cached position
// is refreshed, so calling Update on every observation is cheap.
// Negative ids panic (Insert reports them as errors).
func (g *Grid) Update(id int, p geom.Point) {
	loc := g.locOf(id)
	if loc == nil || loc.idx < 0 {
		if id < 0 {
			panic(fmt.Sprintf("spatial: id %d must be nonnegative", id))
		}
		g.place(id, p)
		return
	}
	if k := g.CellOf(p).key(); k == loc.key {
		g.bucketRef(loc.key)[loc.idx].p = p
		return
	}
	g.unplace(*loc)
	g.place(id, p)
}

// Remove deletes id from the index. It reports whether the id was
// present.
func (g *Grid) Remove(id int) bool {
	loc := g.locOf(id)
	if loc == nil || loc.idx < 0 {
		return false
	}
	g.unplace(*loc)
	loc.idx = -1
	return true
}

// At returns the cached position of id and whether it is indexed.
func (g *Grid) At(id int) (geom.Point, bool) {
	loc := g.locOf(id)
	if loc == nil || loc.idx < 0 {
		return geom.Point{}, false
	}
	return g.bucketRef(loc.key)[loc.idx].p, true
}

// denseIndex returns the window slot of c and whether c lies inside the
// window.
func (g *Grid) denseIndex(c Cell) (int, bool) {
	cx, cy := c.X-g.ox, c.Y-g.oy
	if cx < 0 || cx >= g.w || cy < 0 || cy >= g.h {
		return 0, false
	}
	return cy*g.w + cx, true
}

// bucketRef returns the current bucket of the packed cell k (nil when
// empty).
func (g *Grid) bucketRef(k uint64) []item {
	if i, ok := g.denseIndex(cellOfKey(k)); ok {
		return g.dense[i]
	}
	return g.overflow[k]
}

// setBucket stores b as the bucket of packed cell k.
func (g *Grid) setBucket(k uint64, b []item) {
	if i, ok := g.denseIndex(cellOfKey(k)); ok {
		g.dense[i] = b
		return
	}
	if len(b) == 0 {
		delete(g.overflow, k)
	} else {
		g.overflow[k] = b
	}
}

// place appends id to the bucket of the cell containing p, growing the
// dense window to cover it when possible.
func (g *Grid) place(id int, p geom.Point) {
	c := g.CellOf(p)
	if _, ok := g.denseIndex(c); !ok {
		g.growWindow(c)
	}
	k := c.key()
	b := append(g.bucketRef(k), item{id: id, p: p})
	g.setBucket(k, b)
	for id >= len(g.where) {
		g.where = append(g.where, locator{idx: -1})
	}
	g.where[id] = locator{key: k, idx: len(b) - 1}
}

// unplace removes the entry at loc with a swap-delete, fixing up the
// moved entry's locator.
func (g *Grid) unplace(loc locator) {
	b := g.bucketRef(loc.key)
	last := len(b) - 1
	if loc.idx < last {
		moved := b[last]
		b[loc.idx] = moved
		g.where[moved.id] = locator{key: loc.key, idx: loc.idx}
	}
	b[last] = item{}
	g.setBucket(loc.key, b[:last])
}

// growWindow expands the dense window to cover cell c, up to
// maxDenseSpan per axis; beyond that the cell stays in the overflow
// map. Growth is geometric (a margin of a quarter of the new span) so
// entities drifting across a region trigger O(log) rebuilds, each
// O(window) bucket-header copies.
func (g *Grid) growWindow(c Cell) {
	nx0, ny0, nx1, ny1 := c.X, c.Y, c.X, c.Y
	if g.w > 0 {
		nx0 = min(nx0, g.ox)
		ny0 = min(ny0, g.oy)
		nx1 = max(nx1, g.ox+g.w-1)
		ny1 = max(ny1, g.oy+g.h-1)
	}
	if nx1-nx0 >= maxDenseSpan || ny1-ny0 >= maxDenseSpan {
		return // window capped; the cell lives in overflow
	}
	// Inflate by a quarter-span margin, capped so the final window
	// always still covers the whole union box [nx0, nx1] × [ny0, ny1]
	// (clamping the width without re-anchoring the origin would strand
	// old buckets outside the window and corrupt their locators).
	spanX := nx1 - nx0 + 1
	spanY := ny1 - ny0 + 1
	w := min(spanX+2*((spanX+3)/4), maxDenseSpan)
	h := min(spanY+2*((spanY+3)/4), maxDenseSpan)
	nx0 -= (w - spanX) / 2
	ny0 -= (h - spanY) / 2
	dense := make([][]item, w*h)
	// Re-home existing dense buckets...
	for cy := 0; cy < g.h; cy++ {
		for cx := 0; cx < g.w; cx++ {
			b := g.dense[cy*g.w+cx]
			if len(b) > 0 {
				dense[(cy+g.oy-ny0)*w+(cx+g.ox-nx0)] = b
			}
		}
	}
	g.ox, g.oy, g.w, g.h, g.dense = nx0, ny0, w, h, dense
	// ...and pull overflow buckets that now fit the window.
	for k, b := range g.overflow {
		if i, ok := g.denseIndex(cellOfKey(k)); ok {
			g.dense[i] = b
			delete(g.overflow, k)
		}
	}
}

// scanRect bounds one disk query: the cell rectangle covering the disk.
// Grid queries use radii close to the cell size (a 3×3 block), where a
// per-cell circle test costs more than visiting the few extra corner
// entries, so the whole rectangle is scanned and callers' exact
// predicates do the filtering.
type scanRect struct {
	x0, x1, y0, y1 int
	clipped        bool // scan fully inside the dense window
}

// rect computes the cell rectangle covering the disk (p, r), clipped to
// the dense window when the overflow map is empty.
func (g *Grid) rect(p geom.Point, r float64) scanRect {
	if r < 0 {
		r = 0
	}
	s := scanRect{
		x0: int(math.Floor((p.X - r) * g.inv)),
		x1: int(math.Floor((p.X + r) * g.inv)),
		y0: int(math.Floor((p.Y - r) * g.inv)),
		y1: int(math.Floor((p.Y + r) * g.inv)),
	}
	if len(g.overflow) == 0 {
		s.x0, s.y0 = max(s.x0, g.ox), max(s.y0, g.oy)
		s.x1, s.y1 = min(s.x1, g.ox+g.w-1), min(s.y1, g.oy+g.h-1)
		s.clipped = true
	}
	return s
}

// bucketAt returns the bucket of cell (cx, cy); clipped avoids the
// denseIndex bounds checks when the scan is pre-clipped to the window.
func (g *Grid) bucketAt(cx, cy int, clipped bool) []item {
	if clipped {
		return g.dense[(cy-g.oy)*g.w+(cx-g.ox)]
	}
	if i, ok := g.denseIndex(Cell{X: cx, Y: cy}); ok {
		return g.dense[i]
	}
	return g.overflow[Cell{X: cx, Y: cy}.key()]
}

// Near visits every entry whose cell intersects the bounding square of
// the disk of radius r around p, in unspecified order, passing the
// entry's cached position. It is a superset query: visited entries may
// lie farther than r from p (their cell merely touches the square, and
// cached positions may be stale), so callers must apply their own exact
// predicate. Returning false from visit stops the walk.
func (g *Grid) Near(p geom.Point, r float64, visit func(id int, q geom.Point) bool) {
	s := g.rect(p, r)
	for cy := s.y0; cy <= s.y1; cy++ {
		for cx := s.x0; cx <= s.x1; cx++ {
			for _, it := range g.bucketAt(cx, cy, s.clipped) {
				if !visit(it.id, it.p) {
					return
				}
			}
		}
	}
}

// NearIDs appends to buf the ids of every entry whose cell intersects
// the bounding square of the disk of radius r around p and returns the
// extended slice. Like Near it is a superset query with unspecified
// order; callers sort and/or filter as needed. (Open-coded rather than
// delegating to Near: this is the medium's per-reception hot path, and
// the closure-free loop measurably beats the visitor.)
func (g *Grid) NearIDs(p geom.Point, r float64, buf []int) []int {
	s := g.rect(p, r)
	for cy := s.y0; cy <= s.y1; cy++ {
		for cx := s.x0; cx <= s.x1; cx++ {
			for _, it := range g.bucketAt(cx, cy, s.clipped) {
				buf = append(buf, it.id)
			}
		}
	}
	return buf
}
