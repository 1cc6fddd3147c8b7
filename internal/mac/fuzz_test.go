package mac

import (
	"math"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
)

// FuzzMediumConfig fuzzes the numeric Config fields: either NewMedium
// rejects the configuration, or a three-radio run with unicast and
// broadcast traffic reaches its horizon without panicking. The radios
// sit at 0, 0.9 and 1.8 ranges along a line, so they hear one another at
// any fuzzed range and the ends are hidden from each other when the
// carrier-sense factor is below 2. The run stops after maxEvents events:
// a valid configuration may still make no progress in float time (a slot
// far below the clock's resolution with a large retry budget), which is
// slow but not a fault.
func FuzzMediumConfig(f *testing.F) {
	d := DefaultConfig(100)
	add := func(c Config) {
		f.Add(c.BitRate, c.Range, c.CSRangeFactor, c.QueueLen, c.HeaderBits,
			c.SlotTime, c.DIFS, c.SIFS, c.CWMin, c.CWMax, c.MaxRetries,
			c.CaptureRatio, c.IndexSlack, c.VirtualCS)
	}
	add(d)
	// Each of these passed Validate once and then panicked the scheduler.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.BitRate = math.NaN() },
		func(c *Config) { c.SlotTime = math.NaN() },
		func(c *Config) { c.DIFS = math.Inf(1) },
		func(c *Config) { c.HeaderBits = -100000 },
		func(c *Config) { c.CWMin, c.CWMax = math.MaxInt/2+1, math.MaxInt },
	} {
		c := d
		mutate(&c)
		add(c)
	}
	f.Fuzz(func(t *testing.T, bitRate, rng, csFactor float64, queueLen, headerBits int,
		slot, difs, sifs float64, cwMin, cwMax, maxRetries int,
		capture, slack float64, virtualCS bool) {
		cfg := Config{
			BitRate: bitRate, Range: rng, CSRangeFactor: csFactor,
			QueueLen: queueLen, HeaderBits: headerBits,
			SlotTime: slot, DIFS: difs, SIFS: sifs,
			CWMin: cwMin, CWMax: cwMax, MaxRetries: maxRetries,
			CaptureRatio: capture, VirtualCS: virtualCS, IndexSlack: slack,
		}
		sched := des.NewScheduler()
		const maxEvents = 20000
		// Every attempt and every reception reads a position, so this is
		// where the run is capped: the read panics with capped, which
		// ends the run and nothing else.
		type capped struct{}
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(capped); !ok {
					panic(r)
				}
			}
		}()
		m, err := NewMedium(sched, cfg, 1, rng, rng, 3, func(id int) geom.Point {
			if sched.Processed() >= maxEvents {
				panic(capped{})
			}
			return geom.Pt(0.9*rng*float64(id), 0)
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
// airings), send times and the VirtualCS and CaptureRatio settings, and
// requires the production medium and the never-pruning reference
// (newUnprunedMedium) to deliver the same frames in the same order and
// count the same stats. data is read as one byte for the radio count
// (2–9; the high bit sets a carrier-sense factor of 1, which makes
// hidden terminals), two bytes per radio for its position on a 400 m
// square (range 100 m), then four bytes per frame (at most 32): sender,
// destination (broadcast for even bytes), size class, and send time.
// The bit rate is 2^20 bit/s and every frame's header plus payload is a
// multiple of 1024 bits, so send times on the 1/1024 s grid and the end
// ticks of undeferred airings coincide exactly: airings start in the
// very tick others end.
func FuzzMediumRetention(f *testing.F) {
	// Radio 1 hears radios 0 and 2, which are hidden from each other;
	// radio 0's frame starts in the tick radio 2's ends.
	f.Add([]byte{0x81, 0, 0, 58, 0, 116, 0, 2, 0, 3, 0, 0, 0, 3, 9}, 0.0, false)
	// A 1 s airing overlapping a short one, an unrelated far frame, and
	// a unicast.
	f.Add([]byte{0x82, 0, 0, 58, 0, 116, 0, 255, 255,
		2, 0, 3, 0, 0, 0, 5, 1, 3, 0, 3, 200, 1, 1, 2, 10}, 10.0, true)
	f.Add([]byte{5, 0, 0, 40, 0, 80, 0, 120, 0, 40, 40, 80, 40, 120, 40,
		0, 0, 7, 0, 2, 3, 3, 0, 4, 0, 3, 9, 1, 5, 6, 9, 5, 2, 3, 18, 3, 7, 1, 18}, 4.0, true)
	f.Fuzz(func(t *testing.T, data []byte, capture float64, virtualCS bool) {
		cfg := DefaultConfig(100)
		cfg.BitRate = 1 << 20
		cfg.CaptureRatio = capture
		cfg.VirtualCS = virtualCS
		if len(data) == 0 {
			return
		}
		if data[0]&0x80 != 0 {
			cfg.CSRangeFactor = 1
		}
		if cfg.Validate() != nil {
			return
		}
		n := 2 + int(data[0]&0x7f)%8
		data = data[1:]
		if len(data) < 2*n {
			return
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(data[2*i])*400/256, float64(data[2*i+1])*400/256)
		}
		data = data[2*n:]
		// Total frame lengths in units of 1024 bits: short frames, the
		// default data frame's size, and 1, 2 and 4 s airings.
		units := [...]int{1, 2, 8, 9, 64, 1024, 2048, 4096}
		var sends []sendSpec
		for ; len(data) >= 4 && len(sends) < 32; data = data[4:] {
			sp := sendSpec{
				at:   float64(data[3]) / 1024,
				src:  int(data[0]) % n,
				dst:  Broadcast,
				bits: units[data[2]%8]*1024 - cfg.HeaderBits,
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
