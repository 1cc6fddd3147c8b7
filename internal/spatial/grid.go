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
// insert/update time, and a disk query returns exactly the entries
// whose cached position lies in the disk — callers tracking moving
// points must refresh entries (see Update) often enough that the
// staleness stays within whatever slack they add to query radii.
//
// Storage is one bucket array sized at construction from the world's
// region [0,W]×[0,H]: the cells covering it plus one margin cell on
// each side. A point beyond the margin is stored in the nearest margin
// cell, so queries stay exact for any point and only get slower for
// far-off ones. The cell edge doubles until the array holds at most 64
// cells per entry plus 1024, which bounds a query over the whole region
// at O(n) cells.
package spatial

import (
	"fmt"
	"math"

	"glr/internal/geom"
)

// item is one indexed entry as stored in a cell bucket. The position is
// kept inline so queries never touch the id table.
type item struct {
	id int
	p  geom.Point
}

// locator records where an id currently lives: its cell's index in the
// bucket array and its index within that cell's bucket. idx < 0 means
// "not indexed".
type locator struct {
	cell, idx int
}

// Cell-count cap: a grid holds at most cellsPerEntry·n + cellsMin
// cells for n entries.
const (
	cellsPerEntry = 64
	cellsMin      = 1024
)

// Grid is a uniform-grid point index. The zero value is not usable;
// construct with NewGrid. Grid is not safe for concurrent use.
type Grid struct {
	size float64
	inv  float64

	// nx × ny buckets, margins included: the bucket of column cx, row cy
	// is cells[cy*nx+cx], and column cx holds plane cell cx-1.
	nx, ny int
	cells  [][]item

	// where maps id → locator, indexed directly (ids are small dense
	// nonnegative integers).
	where []locator
}

// NewGrid returns an empty index for about n entries in the region
// [0,w]×[0,h], with the given cell edge length, doubled until the
// region and its margins fit in 64·n + 1024 cells.
func NewGrid(cellSize, w, h float64, n int) (*Grid, error) {
	switch {
	case !(cellSize > 0) || math.IsInf(cellSize, 1):
		return nil, fmt.Errorf("spatial: cell size %v must be positive and finite", cellSize)
	case !(w >= 0 && h >= 0) || math.IsInf(w, 1) || math.IsInf(h, 1):
		return nil, fmt.Errorf("spatial: region %vx%v must be nonnegative and finite", w, h)
	case n < 0:
		return nil, fmt.Errorf("spatial: entry count %d must be nonnegative", n)
	}
	limit := float64(cellsPerEntry)*float64(n) + cellsMin
	g := &Grid{size: cellSize, inv: 1 / cellSize}
	for {
		nx, ny := math.Floor(w*g.inv)+3, math.Floor(h*g.inv)+3
		if nx*ny <= limit {
			g.nx, g.ny = int(nx), int(ny)
			break
		}
		g.size *= 2
		g.inv = 1 / g.size
	}
	g.cells = make([][]item, g.nx*g.ny)
	return g, nil
}

// column returns the array column (or row, with n = ny) of coordinate
// v: its plane cell floor(v/size) shifted past the low margin, clamped
// in float space into [0, n-1] so that far-off, infinite and NaN
// coordinates land in a margin cell.
func (g *Grid) column(v float64, n int) int {
	f := math.Floor(v*g.inv) + 1
	if !(f >= 0) {
		return 0
	}
	return int(min(f, float64(n-1)))
}

// cellOf returns the array index of the cell storing p.
func (g *Grid) cellOf(p geom.Point) int {
	return g.column(p.Y, g.ny)*g.nx + g.column(p.X, g.nx)
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
	if c := g.cellOf(p); c == loc.cell {
		g.cells[c][loc.idx].p = p
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

// place appends id to the bucket of the cell storing p.
func (g *Grid) place(id int, p geom.Point) {
	c := g.cellOf(p)
	g.cells[c] = append(g.cells[c], item{id: id, p: p})
	for id >= len(g.where) {
		g.where = append(g.where, locator{idx: -1})
	}
	g.where[id] = locator{cell: c, idx: len(g.cells[c]) - 1}
}

// unplace removes the entry at loc with a swap-delete, fixing up the
// moved entry's locator.
func (g *Grid) unplace(loc locator) {
	b := g.cells[loc.cell]
	last := len(b) - 1
	if loc.idx < last {
		moved := b[last]
		b[loc.idx] = moved
		g.where[moved.id] = loc
	}
	b[last] = item{}
	g.cells[loc.cell] = b[:last]
}

// NearIDs appends to buf the ids of the entries whose cached position q
// lies in the closed disk of radius r around p, q.Dist2(p) <= r*r (a
// negative r counts as 0), and returns the extended slice. Ids come in
// cell-scan order: row-major over the cells of the disk's bounding
// rectangle, clamped to the array, then in bucket order within a cell.
// A caller whose own predicate is a disk test can therefore pass its
// radius with a margin for float rounding and staleness, or, for a test
// of the same form (Dist2 against the same r*r), the radius itself: the
// filter keeps every entry that test accepts. The clamp bounds any
// query at the array's 64·n + 1024 cells.
func (g *Grid) NearIDs(p geom.Point, r float64, buf []int) []int {
	r = max(r, 0)
	r2 := r * r
	x0, x1 := g.column(p.X-r, g.nx), g.column(p.X+r, g.nx)
	y0, y1 := g.column(p.Y-r, g.ny), g.column(p.Y+r, g.ny)
	if math.IsInf(r2, 1) { // every entry at a finite distance passes
		x0, x1, y0, y1 = 0, g.nx-1, 0, g.ny-1
	}
	for cy := y0; cy <= y1; cy++ {
		for _, b := range g.cells[cy*g.nx+x0 : cy*g.nx+x1+1] {
			for _, it := range b {
				if it.p.Dist2(p) <= r2 {
					buf = append(buf, it.id)
				}
			}
		}
	}
	return buf
}
