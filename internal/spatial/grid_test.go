package spatial

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"glr/internal/geom"
)

// Near visits every entry in a bucket of the cell rectangle covering
// the disk of radius r around p (a negative r counts as 0), clamped to
// the array, in row-major cell order and bucket order within a cell,
// passing the entry's cached position. It is the unfiltered cell scan
// NearIDs filters: visited entries may lie outside the disk. Returning
// false from visit stops the walk.
func (g *Grid) Near(p geom.Point, r float64, visit func(id int, q geom.Point) bool) {
	r = max(r, 0)
	x0, x1 := g.column(p.X-r, g.nx), g.column(p.X+r, g.nx)
	y0, y1 := g.column(p.Y-r, g.ny), g.column(p.Y+r, g.ny)
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, it := range g.cells[cy*g.nx+cx] {
				if !visit(it.id, it.p) {
					return
				}
			}
		}
	}
}

// At returns the cached position of id and whether it is indexed.
func (g *Grid) At(id int) (geom.Point, bool) {
	loc := g.locOf(id)
	if loc == nil || loc.idx < 0 {
		return geom.Point{}, false
	}
	return g.cells[loc.cell][loc.idx].p, true
}

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

// newGrid is NewGrid for a test's valid arguments.
func newGrid(t testing.TB, cellSize, w, h float64, n int) *Grid {
	t.Helper()
	g, err := NewGrid(cellSize, w, h, n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridRejectsBadCellSize(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		size, w, h float64
		n          int
	}{
		{0, 100, 100, 1}, {-1, 100, 100, 1}, {inf, 100, 100, 1}, {nan, 100, 100, 1},
		{10, -1, 100, 1}, {10, 100, -1, 1}, {10, inf, 100, 1}, {10, 100, nan, 1},
		{10, 100, 100, -1},
	} {
		if _, err := NewGrid(c.size, c.w, c.h, c.n); err == nil {
			t.Errorf("NewGrid(%v, %v, %v, %d) accepted", c.size, c.w, c.h, c.n)
		}
	}
	if _, err := NewGrid(10, 0, 0, 0); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
}

// TestCellOfNegativeCoordinates: the array holds the region's cells
// plus one margin cell on each side, and a point beyond the margin —
// far off, infinite or NaN — is stored in the nearest margin cell.
func TestCellOfNegativeCoordinates(t *testing.T) {
	g := newGrid(t, 10, 100, 50, 1)
	if g.nx != 13 || g.ny != 8 {
		t.Fatalf("array %dx%d, want 13x8 (the 11x6 cells meeting the region, plus margins)", g.nx, g.ny)
	}
	inf, nan := math.Inf(1), math.NaN()
	tests := []struct {
		v    float64
		want int
	}{
		{0, 1}, {9.99, 1}, {10, 2}, {100, 11}, {109.99, 11},
		{-0.01, 0}, {-10, 0}, // the low margin cell
		{110, 12}, {119.99, 12}, // the high margin cell
		{-10.01, 0}, {-1e300, 0}, {-inf, 0}, {nan, 0}, // clamped low
		{120, 12}, {1e300, 12}, {inf, 12}, // clamped high
	}
	for _, tt := range tests {
		if got := g.column(tt.v, g.nx); got != tt.want {
			t.Errorf("column(%v) = %d, want %d", tt.v, got, tt.want)
		}
	}
	if got, want := g.cellOf(geom.Pt(-1e300, 1e300)), 7*13; got != want {
		t.Errorf("cellOf(-1e300, 1e300) = %d, want the corner margin cell %d", got, want)
	}
}

func TestInsertRemoveUpdate(t *testing.T) {
	g := newGrid(t, 10, 100, 100, 5)
	if err := g.Insert(1, geom.Pt(5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, geom.Pt(6, 6)); err == nil {
		t.Error("duplicate insert accepted")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if p, ok := g.At(1); !ok || !p.Eq(geom.Pt(5, 5)) {
		t.Errorf("At(1) = %v,%v", p, ok)
	}

	// Same-cell update refreshes the cached point without moving buckets.
	g.Update(1, geom.Pt(7, 7))
	if p, _ := g.At(1); !p.Eq(geom.Pt(7, 7)) {
		t.Errorf("cached point not refreshed: %v", p)
	}
	// Cross-cell update moves the entry.
	g.Update(1, geom.Pt(25, 25))
	var seen []int
	g.Near(geom.Pt(25, 25), 1, func(id int, _ geom.Point) bool {
		seen = append(seen, id)
		return true
	})
	if len(seen) != 1 || seen[0] != 1 {
		t.Errorf("entry not found in new cell: %v", seen)
	}
	// Update on an absent id inserts it.
	g.Update(2, geom.Pt(0, 0))
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}

	if !g.Remove(1) {
		t.Error("Remove(1) = false")
	}
	if g.Remove(1) {
		t.Error("double remove reported true")
	}
	if g.Len() != 1 {
		t.Errorf("Len after remove = %d", g.Len())
	}
}

func TestNearEarlyStop(t *testing.T) {
	g := newGrid(t, 10, 100, 100, 5)
	for i := 0; i < 5; i++ {
		g.Insert(i, geom.Pt(1, 1))
	}
	visits := 0
	g.Near(geom.Pt(1, 1), 5, func(int, geom.Point) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("early-stop visited %d entries, want 1", visits)
	}
}

// TestNearSupersetAgainstBruteForce drives randomized insert / update /
// remove churn and checks, for random disk queries, that Near yields a
// superset of the brute-force answer and nothing outside the scanned
// cell block.
func TestNearSupersetAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		// Points fall over [-500, 500]², three quarters of it outside
		// the region, much of that beyond the margin cells.
		n := 1 + rng.Intn(120)
		g := newGrid(t, 5+rng.Float64()*100, 500, 500, n)
		cell := g.size
		pts := make(map[int]geom.Point)
		randPt := func() geom.Point {
			return geom.Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
		}
		inMargins := func(p geom.Point) bool {
			hi := func(n int) float64 { return float64(n-1) * cell }
			return p.X >= -cell && p.Y >= -cell && p.X < hi(g.nx) && p.Y < hi(g.ny)
		}
		for i := 0; i < n; i++ {
			pts[i] = randPt()
			if err := g.Insert(i, pts[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Churn.
		for k := 0; k < 200; k++ {
			id := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				p := randPt()
				pts[id] = p
				g.Update(id, p)
			case 1:
				removed := g.Remove(id)
				if _, had := pts[id]; had != removed {
					t.Fatalf("Remove(%d) = %v, tracked presence %v", id, removed, had)
				}
				delete(pts, id)
			case 2:
				if _, had := pts[id]; !had {
					p := randPt()
					pts[id] = p
					g.Update(id, p)
				}
			}
		}
		if g.Len() != len(pts) {
			t.Fatalf("Len = %d, want %d", g.Len(), len(pts))
		}
		for q := 0; q < 20; q++ {
			p := randPt()
			r := rng.Float64() * 300
			got := map[int]bool{}
			g.Near(p, r, func(id int, cached geom.Point) bool {
				if !cached.Eq(pts[id]) {
					t.Fatalf("cached point for %d = %v, want %v", id, cached, pts[id])
				}
				if got[id] {
					t.Fatalf("id %d visited twice", id)
				}
				got[id] = true
				return true
			})
			for id, pt := range pts {
				d := p.Dist(pt)
				if d <= r && !got[id] {
					t.Fatalf("trial %d: id %d at dist %.2f ≤ r=%.2f missed", trial, id, d, r)
				}
				// Anything visited must at least be within the scanned
				// cell rectangle: (r + one cell) per axis, so the
				// diagonal bounds the distance, unless a clamp put the
				// entry or the query centre into a margin cell.
				if got[id] && inMargins(pt) && inMargins(p) && d > (r+cell)*math.Sqrt2+1e-9 {
					t.Fatalf("trial %d: id %d at dist %.2f visited for r=%.2f (cell %.2f)", trial, id, d, r, cell)
				}
			}
		}
	}
}

// TestNearIDsAppendsAndMatchesNear: NearIDs appends to buf, and returns
// the ids Near visits whose cached position is in the closed disk —
// the same ids in the same order — and no others.
func TestNearIDsAppendsAndMatchesNear(t *testing.T) {
	g := newGrid(t, 20, 200, 200, 40)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		g.Insert(i, geom.Pt(rng.Float64()*200, rng.Float64()*200))
	}
	p := geom.Pt(100, 100)
	var fromNear []int
	visited := 0
	g.Near(p, 60, func(id int, q geom.Point) bool {
		visited++
		if q.Dist(p) <= 60 {
			fromNear = append(fromNear, id)
		}
		return true
	})
	buf := []int{-1}
	ids := g.NearIDs(p, 60, buf)
	if ids[0] != -1 {
		t.Error("NearIDs must append to buf")
	}
	ids = ids[1:]
	if !slices.Equal(ids, fromNear) {
		t.Fatalf("NearIDs = %v, Near filtered to the disk = %v", ids, fromNear)
	}
	if len(ids) == 0 || len(ids) == visited {
		t.Fatalf("NearIDs kept %d of the %d scanned entries; the query must keep some and drop some", len(ids), visited)
	}
}

// TestNegativeRadiusTreatedAsZero: a negative radius is the closed
// disk of radius 0, so NearIDs returns exactly the entries at p, while
// Near still scans p's cell.
func TestNegativeRadiusTreatedAsZero(t *testing.T) {
	g := newGrid(t, 10, 100, 100, 5)
	g.Insert(0, geom.Pt(5, 5))
	g.Insert(1, geom.Pt(5, 6))
	count := 0
	g.Near(geom.Pt(5, 5), -3, func(int, geom.Point) bool {
		count++
		return true
	})
	if count != 2 {
		t.Errorf("negative radius should still scan the containing cell, got %d visits", count)
	}
	if got := g.NearIDs(geom.Pt(5, 5), -3, nil); !slices.Equal(got, []int{0}) {
		t.Errorf("NearIDs with a negative radius = %v, want [0]", got)
	}
}

// nearOrder is the oracle for NearIDs: the ids Near's row-major cell
// scan visits, in visit order, filtered to the closed disk of radius r
// (a negative r counts as 0) by the cached position.
func nearOrder(g *Grid, p geom.Point, r float64) []int {
	r = max(r, 0)
	var ids []int
	g.Near(p, r, func(id int, q geom.Point) bool {
		if q.Dist2(p) <= r*r {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// bruteOrder is the brute-force oracle for NearIDs: every indexed
// entry whose cached position lies in the closed disk of radius r
// around p (a negative r counts as 0), sorted into cell-scan order —
// row-major over the cells storing them, then bucket order.
func bruteOrder(g *Grid, p geom.Point, r float64) []int {
	r = max(r, 0)
	var ids []int
	for id, loc := range g.where {
		if loc.idx >= 0 && g.cells[loc.cell][loc.idx].p.Dist2(p) <= r*r {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		la, lb := g.where[a], g.where[b]
		return cmp.Or(cmp.Compare(la.cell, lb.cell), cmp.Compare(la.idx, lb.idx))
	})
	return ids
}

// TestNearIDsMatchesCellScan: after insert / update / remove churn,
// with entries and query centres inside the region and up to ten
// region widths outside it, NearIDs returns exactly the ids of the
// cell scan filtered to the closed disk, in the same order, and those
// are the brute-force disk filter, both for the medium's small
// rectangles and for rectangles wider than the array.
func TestNearIDsMatchesCellScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		w, h := 50+rng.Float64()*500, 50+rng.Float64()*200
		n := 1 + rng.Intn(40)
		g := newGrid(t, 1+rng.Float64()*9, w, h, n)
		// Odd trials spread entries and centres over ten region widths
		// around the region, most of them beyond the margin cells.
		spread := 1.0
		if trial%2 == 1 {
			spread = 10
		}
		randPt := func() geom.Point {
			return geom.Pt((rng.Float64()-0.5)*spread*w+w/2, (rng.Float64()-0.5)*spread*h+h/2)
		}
		for i := 0; i < n; i++ {
			g.Update(i, randPt())
		}
		for k := 0; k < 100; k++ {
			if id := rng.Intn(n); rng.Intn(4) == 0 {
				g.Remove(id)
			} else {
				g.Update(id, randPt())
			}
		}
		for q := 0; q < 30; q++ {
			p := randPt()
			r := rng.Float64() * 40 * g.size
			want := nearOrder(g, p, r)
			got := g.NearIDs(p, r, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: NearIDs(%v, %.1f) = %v, filtered cell scan %v", trial, p, r, got, want)
			}
			if brute := bruteOrder(g, p, r); !slices.Equal(got, brute) {
				t.Fatalf("trial %d: NearIDs(%v, %.1f) = %v, brute force %v", trial, p, r, got, brute)
			}
		}
	}
}

// TestNearIDsExtremes: NearIDs is the brute-force disk filter in
// cell-scan order for entries and centres far outside the region
// (±1e300, ±Inf, NaN), for zero, huge and infinite radii, and on grids
// whose cell size is so small that NewGrid doubles it.
func TestNearIDsExtremes(t *testing.T) {
	inf := math.Inf(1)
	coords := []float64{-inf, -1e300, -1e9, -3, 0, 0.5, 7, 99.5, 100, 250, 1e9, 1e300, inf, math.NaN()}
	radii := []float64{-1, 0, 1e-9, 1, 50, 1e9, 1e150, 1e160, 1e300, inf}
	for _, cell := range []float64{1e-3, 0.7, 10, 1e6} {
		rng := rand.New(rand.NewSource(int64(cell * 1000)))
		const n = 40
		g := newGrid(t, cell, 100, 60, n)
		if cell < 1 && g.size == cell {
			t.Fatalf("cell %v on a 100x60 region for %d entries was not doubled", cell, n)
		}
		pick := func() float64 {
			if rng.Intn(2) == 0 {
				return rng.Float64() * 100
			}
			return coords[rng.Intn(len(coords))]
		}
		for id := 0; id < n; id++ {
			g.Update(id, geom.Pt(pick(), pick()))
		}
		for k := 0; k < 40; k++ {
			g.Update(rng.Intn(n), geom.Pt(pick(), pick()))
		}
		for q := 0; q < 400; q++ {
			p := geom.Pt(pick(), pick())
			if q%4 == 0 { // a centre on an entry, so zero radii hit
				p, _ = g.At(rng.Intn(n))
			}
			r := radii[rng.Intn(len(radii))]
			got, want := g.NearIDs(p, r, nil), bruteOrder(g, p, r)
			if !slices.Equal(got, want) {
				t.Fatalf("cell %v: NearIDs(%v, %v) = %v, brute force %v", cell, p, r, got, want)
			}
		}
	}
}

// TestCellCountCap: NewGrid keeps the given cell size unless the region
// and its margins would need more than 64 cells per entry plus 1024,
// and then doubles it only until they fit.
func TestCellCountCap(t *testing.T) {
	// The paper's 50-node strip at 20 m keeps its cell edge: 78x18 cells.
	if g := newGrid(t, 20, 1500, 300, 50); g.size != 20 || len(g.cells) != 78*18 {
		t.Fatalf("1500x300 at 20 m for 50 entries: cell %v, %d cells; want 20 m and 1404", g.size, len(g.cells))
	}
	rng := rand.New(rand.NewSource(3))
	check := func(cell, w, h float64, n int) {
		t.Helper()
		g := newGrid(t, cell, w, h, n)
		limit := 64*n + 1024
		if len(g.cells) > limit || len(g.cells) != g.nx*g.ny {
			t.Fatalf("NewGrid(%v, %v, %v, %d): %dx%d = %d cells, cap %d", cell, w, h, n, g.nx, g.ny, len(g.cells), limit)
		}
		if g.size > cell {
			half := g.size / 2
			if inv := 1 / half; (math.Floor(w*inv)+3)*(math.Floor(h*inv)+3) <= float64(limit) {
				t.Fatalf("NewGrid(%v, %v, %v, %d) doubled to %v, but %v fits the cap", cell, w, h, n, g.size, half)
			}
		}
	}
	for k := 0; k < 200; k++ {
		check(math.Pow(10, rng.Float64()*8-4), math.Pow(10, rng.Float64()*8-2), math.Pow(10, rng.Float64()*6-2), rng.Intn(1000))
	}
	check(5e-324, 1e300, 1e300, 0)
	check(5e-324, 0, 0, 3)
	check(1e-300, 1e300, 7, 10000)
}

// TestNearIDsHugeRadius: a radius a billion cells wide (a medium whose
// movement slack dwarfs its range) answers at once, with every entry in
// cell-scan order, and a rectangle just as wide around a far point
// filters to the entries in its disk: the clamp to the array bounds
// either scan at its 64·n + 1024 cells.
func TestNearIDsHugeRadius(t *testing.T) {
	g := newGrid(t, 1, 12, 270, 10)
	for i := 0; i < 10; i++ {
		g.Update(i, geom.Pt(float64(i*97%13), float64(i*30)))
	}
	want := nearOrder(g, geom.Pt(5, 150), 300)
	got := g.NearIDs(geom.Pt(5, 150), 1e9, nil)
	if len(want) != 10 || !slices.Equal(got, want) {
		t.Fatalf("NearIDs = %v, cell scan %v", got, want)
	}
	// A disk of radius 1e9 centred 1e9 - 150 below the entries reaches
	// only those with y ≤ 150 (x ≤ 12 adds under a micrometre).
	far := geom.Pt(0, -1e9+150)
	got = g.NearIDs(far, 1e9, nil)
	var inDisk []int
	for _, id := range want {
		if q, _ := g.At(id); q.Dist2(far) <= 1e9*1e9 {
			inDisk = append(inDisk, id)
		}
	}
	if len(inDisk) == 0 || len(inDisk) == 10 || !slices.Equal(got, inDisk) {
		t.Fatalf("NearIDs around %v = %v, want the in-disk entries %v in cell-scan order", far, got, inDisk)
	}
}
