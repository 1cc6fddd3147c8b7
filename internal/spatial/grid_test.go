package spatial

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"glr/internal/geom"
)

// Near visits every entry in a bucket of the cell rectangle covering
// the disk of radius r around p (a negative r counts as 0), in
// row-major cell order and bucket order within a cell, passing the
// entry's cached position. It is the unfiltered cell scan NearIDs
// filters: visited entries may lie outside the disk. Returning false
// from visit stops the walk.
func (g *Grid) Near(p geom.Point, r float64, visit func(id int, q geom.Point) bool) {
	s := g.rect(p, max(r, 0))
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

// At returns the cached position of id and whether it is indexed.
func (g *Grid) At(id int) (geom.Point, bool) {
	loc := g.locOf(id)
	if loc == nil || loc.idx < 0 {
		return geom.Point{}, false
	}
	return g.bucketRef(loc.key)[loc.idx].p, true
}

func TestNewGridRejectsBadCellSize(t *testing.T) {
	for _, size := range []float64{0, -1} {
		if _, err := NewGrid(size); err == nil {
			t.Errorf("cell size %v accepted", size)
		}
	}
	if _, err := NewGrid(10); err != nil {
		t.Fatalf("valid cell size rejected: %v", err)
	}
}

func TestCellOfNegativeCoordinates(t *testing.T) {
	g, _ := NewGrid(10)
	tests := []struct {
		p    geom.Point
		want Cell
	}{
		{geom.Pt(0, 0), Cell{0, 0}},
		{geom.Pt(9.99, 9.99), Cell{0, 0}},
		{geom.Pt(10, 10), Cell{1, 1}},
		{geom.Pt(-0.01, -0.01), Cell{-1, -1}},
		{geom.Pt(-10, -10), Cell{-1, -1}},
		{geom.Pt(-10.01, 0), Cell{-2, 0}},
	}
	for _, tt := range tests {
		if got := g.CellOf(tt.p); got != tt.want {
			t.Errorf("CellOf(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestInsertRemoveUpdate(t *testing.T) {
	g, _ := NewGrid(10)
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
	g, _ := NewGrid(10)
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
		cell := 5 + rng.Float64()*100
		g, err := NewGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		pts := make(map[int]geom.Point)
		n := 1 + rng.Intn(120)
		randPt := func() geom.Point {
			return geom.Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
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
				// diagonal bounds the distance.
				if got[id] && d > (r+cell)*math.Sqrt2+1e-9 {
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
	g, _ := NewGrid(20)
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

// TestGrowWindowClampKeepsOldEntries is a regression test: when margin
// inflation would push the dense window past maxDenseSpan, the clamped
// window must still cover every previously indexed cell, or old buckets
// get re-homed out of bounds and their entries vanish from queries.
func TestGrowWindowClampKeepsOldEntries(t *testing.T) {
	g, _ := NewGrid(1)
	pts := []geom.Point{geom.Pt(0.5, 0.5), geom.Pt(300.5, 0.5), geom.Pt(-130.5, 0.5)}
	for id, p := range pts {
		if err := g.Insert(id, p); err != nil {
			t.Fatal(err)
		}
	}
	for id, p := range pts {
		if got, ok := g.At(id); !ok || !got.Eq(p) {
			t.Fatalf("At(%d) = %v,%v, want %v", id, got, ok, p)
		}
		found := false
		g.Near(p, 0.25, func(v int, _ geom.Point) bool {
			if v == id {
				found = true
			}
			return true
		})
		if !found {
			t.Errorf("entry %d at %v lost after window growth", id, p)
		}
	}
	if g.Len() != len(pts) {
		t.Errorf("Len = %d, want %d", g.Len(), len(pts))
	}
}

// TestNegativeRadiusTreatedAsZero: a negative radius is the closed
// disk of radius 0, so NearIDs returns exactly the entries at p, while
// Near still scans p's cell.
func TestNegativeRadiusTreatedAsZero(t *testing.T) {
	g, _ := NewGrid(10)
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

// TestNearIDsMatchesCellScan: after insert / update / remove churn, on
// dense-window and overflow grids alike, NearIDs returns exactly the
// ids of the cell scan filtered to the closed disk, in the same order,
// both for the medium's small rectangles and for rectangles wide
// enough to be walked by entry.
func TestNearIDsMatchesCellScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		cell := 1 + rng.Float64()*9
		g, err := NewGrid(cell)
		if err != nil {
			t.Fatal(err)
		}
		// Half the trials spread entries past the dense window's
		// maxDenseSpan cells, so the scan runs unclipped over overflow.
		extent := 200.0
		if trial%2 == 1 {
			extent = 20000
		}
		randPt := func() geom.Point {
			return geom.Pt(rng.Float64()*extent-extent/2, rng.Float64()*200-100)
		}
		n := 1 + rng.Intn(40)
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
			r := rng.Float64() * 40 * cell
			want := nearOrder(g, p, r)
			got := g.NearIDs(p, r, nil)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: NearIDs(%v, %.1f) = %v, filtered cell scan %v", trial, p, r, got, want)
			}
		}
	}
}

// TestNearIDsHugeRadius: a radius a billion cells wide (a medium whose
// movement slack dwarfs its range) answers at once, with every entry in
// the order of any cell scan covering them all, and a rectangle just as
// wide around a far point filters to the entries in its disk. Scanning
// either rectangle cell by cell would take hours.
func TestNearIDsHugeRadius(t *testing.T) {
	g, err := NewGrid(1)
	if err != nil {
		t.Fatal(err)
	}
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
