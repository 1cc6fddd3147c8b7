package mobility

import (
	"math"
	"testing"

	"glr/internal/geom"
)

// The Position methods are the oracle for Segment: each model's position
// lookup as it was before trajectories were cut into segments, a pure
// function of the same lazily drawn legs (or trace points) that shares
// no arithmetic with Segment.At.

func (s Static) Position(float64) geom.Point { return s.P }

func (w *Waypoint) Position(t float64) geom.Point { return w.legs.at(t, w.nextLeg) }

func (w *RandomWalk) Position(t float64) geom.Point { return w.legs.at(t, w.nextLeg) }

func (tr *Trace) Position(t float64) geom.Point {
	pts := tr.pts
	if t <= pts[0].T {
		return pts[0].P
	}
	for i := 1; i < len(pts); i++ {
		if t <= pts[i].T {
			a, b := pts[i-1], pts[i]
			frac := (t - a.T) / (b.T - a.T)
			return a.P.Lerp(b.P, frac)
		}
	}
	return pts[len(pts)-1].P
}

func (l leg) at(t float64) geom.Point {
	if t >= l.t1 {
		return l.to
	}
	if t <= l.t0 {
		return l.from
	}
	return l.from.Lerp(l.to, (t-l.t0)/(l.t1-l.t0))
}

// at returns the position at time t (negative t reads as 0), first
// appending legs drawn by next until the last one ends at or after t.
func (tr *trajectory) at(t float64, next func(t0 float64, from geom.Point) leg) geom.Point {
	if t < 0 {
		t = 0
	}
	legs := *tr
	for legs[len(legs)-1].end() < t {
		last := legs[len(legs)-1]
		legs = append(legs, next(last.end(), last.to))
	}
	*tr = legs
	lo, hi := 0, len(legs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if legs[mid].end() < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return legs[lo].at(t)
}

// positioner is a model with its oracle position lookup.
type positioner interface {
	Model
	Position(t float64) geom.Point
}

// segmentCache reads positions the way the simulator's segment table
// does: it keeps one segment and asks the model again only when the
// query time leaves the segment's window.
type segmentCache struct {
	m   Model
	seg Segment
}

func (c *segmentCache) at(t float64) geom.Point {
	if !c.seg.Covers(t) {
		c.seg = c.m.Segment(t)
	}
	return c.seg.At(t)
}

// fuzzByte returns b[i] or 0 past the end.
func fuzzByte(b []byte, i int) byte {
	if i < len(b) {
		return b[i]
	}
	return 0
}

// FuzzSegmentPosition builds a random waypoint, random walk or trace
// model and queries it at times decoded from the input, in input order
// (so both forward and backward), each time also at the bounds of the
// segment just answered and the floats next to them, where the windows'
// half-open ends lie. A cached segment must give exactly the oracle's
// position (compared bit for bit, so a -0 against a +0 fails), every
// segment must cover the time it was asked for, and a model's answers
// must not depend on the order it is asked in.
func FuzzSegmentPosition(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(200), uint16(0), []byte{0, 10, 200, 3, 90, 90, 255, 1, 5, 5})
	f.Add(int64(2), uint8(0), uint16(19), uint16(500), []byte{40, 0, 0, 255, 17, 3})
	f.Add(int64(3), uint8(1), uint16(100), uint16(50), []byte{1, 2, 3, 250, 4, 5, 6, 0})
	f.Add(int64(4), uint8(2), uint16(7), uint16(3), []byte{0, 0, 8, 8, 16, 16, 200, 1, 30, 9, 255, 255})
	f.Add(int64(5), uint8(2), uint16(0), uint16(0), []byte{5})
	// A two-point trace on a 1500 × 300 m region whose second waypoint
	// x = 14·1500/255 differs from first + (second − first): the position
	// at the waypoint's own time must come from the piece's arithmetic.
	f.Add(int64(6), uint8(2), uint16(1499), uint16(299), []byte{1, 0, 1, 7, 14, 9, 5, 0, 6, 64})
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, a, b uint16, data []byte) {
		region := Region{W: 1 + float64(a%2000), H: 1 + float64(b%700)}
		speed := 0.1 + float64(a)/64 // up to about 1024 m/s
		extra := float64(b) / 655.36 // 0 to 100
		newModel := func() positioner {
			switch kind % 3 {
			case 0:
				m, err := NewWaypoint(WaypointConfig{Region: region, MinSpeed: speed / 2, MaxSpeed: speed, Pause: extra}, seed)
				if err != nil {
					t.Fatal(err)
				}
				return m
			case 1:
				m, err := NewRandomWalk(RandomWalkConfig{Region: region, MaxSpeed: speed, LegTime: 0.01 + extra}, seed)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			// A trace of 1–16 waypoints, gaps from 1/64 s to 4 s, from
			// the first bytes of data.
			n := 1 + int(fuzzByte(data, 0)%16)
			pts := make([]TracePoint, n)
			tt := float64(int8(fuzzByte(data, 1)))
			for i := range pts {
				bx, by := fuzzByte(data, 2+2*i), fuzzByte(data, 3+2*i)
				pts[i] = TracePoint{T: tt, P: geom.Pt(float64(bx)*region.W/255, float64(by)*region.H/255)}
				tt += float64(1+bx%4) / 64 * float64(1+by%64)
			}
			m, err := NewTrace(pts)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		model, oracle, fresh := newModel(), newModel(), newModel()
		cache := &segmentCache{m: model}
		check := func(q float64) {
			got, want := cache.at(q), oracle.Position(q)
			if math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
				t.Fatalf("t=%v: cached segment %+v gives %v, Position gives %v", q, cache.seg, got, want)
			}
			if s := fresh.Segment(q); !s.Covers(q) {
				t.Fatalf("t=%v: Segment returned %+v, which does not cover it", q, s)
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			q := float64(uint16(data[i])<<8|uint16(data[i+1]))/64 - 20 // -20 s to about 1000 s
			check(q)
			s := cache.seg
			for _, bound := range []float64{s.Lo, s.Hi, s.T0, s.T1, s.Hold} {
				if math.IsInf(bound, 0) {
					continue
				}
				check(bound)
				check(math.Nextafter(bound, math.Inf(1)))
				check(math.Nextafter(bound, math.Inf(-1)))
			}
		}
	})
}
