package mac

import (
	"math"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
)

// FuzzMediumConfig fuzzes the per-world Config fields, the reception
// range and the radio index's slack: either NewMedium rejects the
// configuration, or a three-radio run with unicast and broadcast traffic
// reaches its horizon without panicking. The radios sit at 0, 0.95 and
// 2.55 ranges along a line, so at any fuzzed range radio 1 hears radio
// 0, and radio 2, hidden from radio 0, corrupts what radio 1 hears from
// it.
func FuzzMediumConfig(f *testing.F) {
	f.Add(100.0, 0.0)
	// Each of these must be rejected: Validate guards the query radii
	// the medium derives from them.
	f.Add(math.NaN(), 0.0)
	f.Add(math.Inf(1), 0.0)
	f.Add(1e308, 0.0)
	f.Add(100.0, math.NaN())
	f.Add(5e307, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, rng, slack float64) {
		sched := des.NewScheduler()
		line := [...]float64{0, 0.95, 2.55}
		m, err := NewMedium(sched, Config{Range: rng, IndexSlack: slack}, 1, 2.55*rng, rng, 3, func(id int) geom.Point {
			return geom.Pt(line[id]*rng, 0)
		})
		if err != nil {
			return
		}
		radios := make([]*Radio, 3)
		for i := range radios {
			r, err := m.AddRadio(i, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			radios[i] = r
		}
		for k := 0; k < 3; k++ {
			at := 0.01 * float64(k)
			sched.At(at, func() {
				radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000})
				radios[2].Send(&Frame{Dst: 1, Bits: 8000})
				radios[1].Send(&Frame{Dst: 0, Bits: 800})
				radios[1].Send(&Frame{Dst: Broadcast, Bits: 800})
			})
		}
		des.NewTicker(sched, 0.25, 0, m.Reindex)
		sched.Run(10)
	})
}

// FuzzMediumRetention fuzzes radio positions, frame sizes (up to 4 s
// airings) and send times, and requires the production medium and the
// never-pruning reference (newUnprunedMedium) to deliver the same frames
// in the same order and count the same stats. data is read as one byte
// for the radio count (2–9), two bytes per radio for its position on a
// 400 m square (range 100 m), then four bytes per frame (at most 32):
// sender, destination (broadcast for even bytes), size class, and send
// time. Every frame's header plus payload is a multiple of 15625 bits,
// 1/64 s at 1 Mbps, so send times on the 1/64 s grid and the end ticks
// of undeferred airings coincide exactly: airings start in the very tick
// others end.
func FuzzMediumRetention(f *testing.F) {
	// Radio 1 hears radio 0, and radio 2, hidden from radio 0, corrupts
	// what radio 1 hears from it; radio 0's frame starts in the tick
	// radio 2's ends.
	f.Add([]byte{1, 0, 0, 61, 0, 164, 0, 2, 0, 2, 0, 0, 0, 2, 3})
	// A 1 s airing overlapping a short one, an unrelated far frame, and
	// a unicast.
	f.Add([]byte{2, 0, 0, 61, 0, 164, 0, 255, 255,
		2, 0, 3, 0, 0, 0, 5, 1, 3, 0, 3, 200, 1, 1, 2, 10})
	f.Add([]byte{5, 0, 0, 40, 0, 80, 0, 120, 0, 40, 40, 80, 40, 120, 40,
		0, 0, 7, 0, 2, 3, 3, 0, 4, 0, 3, 9, 1, 5, 6, 9, 5, 2, 3, 18, 3, 7, 1, 18})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Range: 100}
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%8
		data = data[1:]
		if len(data) < 2*n {
			return
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(data[2*i])*400/256, float64(data[2*i+1])*400/256)
		}
		data = data[2*n:]
		// Total frame lengths in 1/64 s units (a unit is about two
		// default data frames): one to four units, 1/8 s, and 1, 2 and
		// 4 s airings.
		units := [...]int{1, 2, 3, 4, 8, 64, 128, 256}
		var sends []sendSpec
		for ; len(data) >= 4 && len(sends) < 32; data = data[4:] {
			sp := sendSpec{
				at:   float64(data[3]) / 64,
				src:  int(data[0]) % n,
				dst:  Broadcast,
				bits: units[data[2]%8]*15625 - headerBits,
			}
			if data[1]%2 == 1 {
				sp.dst = int(data[1]/2) % n
			}
			sends = append(sends, sp)
		}
		pos := func(id int, _ des.Time) geom.Point { return pts[id] }
		run := func(newMedium mediumFunc) *equivMedium {
			em := buildEquivMedium(t, newMedium, cfg, n, 400, pos, 1)
			for k, sp := range sends {
				em.sched.At(sp.at, func() {
					em.medium.radios[sp.src].Send(&Frame{Dst: sp.dst, Bits: sp.bits, Payload: k})
				})
			}
			em.sched.Run(math.Inf(1))
			return em
		}
		requireSameRun(t, run(NewMedium), run(newUnprunedMedium), "tight", "never-pruned")
	})
}
