package ldt

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"glr/internal/geom"
)

// fuzzView decodes a fuzzed point set. On the lattice, each byte is a
// point of an 8×8 integer grid, so coincident, collinear and cocircular
// ties are common, and r is folded into [1, 7). Raw mode reads each 16
// bytes as two IEEE-754 coordinates and keeps r as given, so non-finite
// and extreme values reach NewLocalView.
func fuzzView(data []byte, raw bool, r float64) ([]geom.Point, float64) {
	var pts []geom.Point
	if raw {
		for len(data) >= 16 && len(pts) < 12 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			y := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			pts = append(pts, geom.Pt(x, y))
			data = data[16:]
		}
		return pts, r
	}
	for _, b := range data[:min(len(data), 24)] {
		pts = append(pts, geom.Pt(float64(b&7), float64(b>>3&7)))
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		r = 0
	}
	return pts, 1 + math.Mod(math.Abs(r), 6)
}

func rawPoints(pts ...geom.Point) []byte {
	var out []byte
	for _, p := range pts {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Y))
	}
	return out
}

// FuzzSpannerNeighbors: for any view, NewLocalView either rejects it
// (exactly when the radius or a coordinate is not finite, or the radius
// is not positive) or the LDTG query returns without panicking, accepts
// exactly the neighbors of the per-witness rule in view order (on exact
// ties too, where the triangulating oracle cannot be compared), accepts
// only unit-disk neighbors of self, and gives the same answer when the
// points after self are reversed.
func FuzzSpannerNeighbors(f *testing.F) {
	f.Add([]byte{0o00, 0o01, 0o11, 0o10}, false, 1.5, uint8(2))                               // unit square
	f.Add([]byte{0o11, 0o00, 0o01, 0o02, 0o10, 0o12, 0o20, 0o21, 0o22}, false, 0.5, uint8(2)) // 3×3 grid
	f.Add([]byte{0o00, 0o00, 0o03, 0o06, 0o33, 0o30}, false, 3.0, uint8(1))
	f.Add(rawPoints(geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(20, 30), geom.Pt(math.Inf(1), 10)), true, math.Inf(1), uint8(2))
	f.Add(rawPoints(geom.Pt(0, 0), geom.Pt(1e300, 1e300), geom.Pt(-1e300, 5e-324), geom.Pt(3, 4)), true, 1e200, uint8(2))
	f.Add([]byte{0o67, 0o25, 0o51, 0o74, 0o32, 0o32, 0o75, 0o15}, false, 3.0, uint8(2)) // an edge only 3-hop points reject
	keep, keepR := fallbackKeepView()
	f.Add(rawPoints(keep...), true, keepR, uint8(2)) // the per-witness scans keep an edge 3-hop points reject
	f.Fuzz(func(t *testing.T, data []byte, raw bool, r float64, k uint8) {
		pts, r := fuzzView(data, raw, r)
		if len(pts) == 0 {
			return
		}
		ids := make([]int, len(pts))
		for i := range ids {
			ids[i] = 7*i + 3
		}
		finite := r > 0 && !math.IsInf(r, 1)
		for _, p := range pts {
			finite = finite && !math.IsNaN(p.X) && !math.IsNaN(p.Y) && !math.IsInf(p.X, 0) && !math.IsInf(p.Y, 0)
		}
		view, err := NewLocalView(ids[0], ids, pts, r)
		if (err == nil) != finite {
			t.Fatalf("NewLocalView(r=%v, %v) error %v, want an error iff not finite", r, pts, err)
		}
		if err != nil {
			return
		}
		m := NewMaintainer()
		got, _ := m.Neighbors(view, VariantLDTG)
		got = slices.Clone(got)
		if want := perWitnessNeighbors(view); !slices.Equal(got, want) {
			t.Fatalf("maintainer accepted %v, per-witness rule %v", got, want)
		}
		udg := map[int]bool{}
		for _, li := range view.UDGNeighbors() {
			udg[view.IDs[li]] = true
		}
		for _, id := range got {
			if !udg[id] {
				t.Fatalf("accepted %d, not a unit-disk neighbor of self (accepted %v)", id, got)
			}
		}
		// Other hop depths are the oracle's alone: LDTGNeighbors at kk
		// may reject a view it cannot triangulate, but must not panic or
		// accept anything outside self's unit disk.
		kk := 1 + int(k%3)
		if local, err := view.LDTGNeighbors(kk); err == nil {
			for _, li := range local {
				if !udg[view.IDs[li]] {
					t.Fatalf("oracle at k=%d accepted %d, not a unit-disk neighbor of self", kk, view.IDs[li])
				}
			}
		}
		rIDs, rPts := slices.Clone(ids), slices.Clone(pts)
		slices.Reverse(rIDs[1:])
		slices.Reverse(rPts[1:])
		rev, err := NewLocalView(ids[0], rIDs, rPts, r)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := m.Neighbors(rev, VariantLDTG)
		again = slices.Clone(again)
		slices.Sort(got)
		slices.Sort(again)
		if !slices.Equal(got, again) {
			t.Fatalf("reversed view accepted %v, original %v", again, got)
		}
	})
}
