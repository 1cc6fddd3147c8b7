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
		m, err := NewMedium(sched, cfg, 1)
		if err != nil {
			return
		}
		const maxEvents = 20000
		radios := make([]*Radio, 3)
		for i := range radios {
			p := geom.Pt(0.9*rng*float64(i), 0)
			r, err := m.AddRadio(i, func() geom.Point {
				// Every attempt and every reception reads a position,
				// so this is where the run is capped.
				if sched.Processed() >= maxEvents {
					sched.Stop()
				}
				return p
			}, nil, nil)
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
