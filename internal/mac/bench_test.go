package mac

import (
	"math"
	"math/rand"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
)

// paperDensityMedium returns a medium of n static radios scattered at the
// paper's node density (50 nodes per 1500×300 m): area grows linearly
// with the node count.
func paperDensityMedium(b testing.TB, n int) (*des.Scheduler, *Medium) {
	b.Helper()
	area := float64(n) / (50.0 / (1500 * 300))
	side := math.Sqrt(area)
	sched := des.NewScheduler()
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	m, err := NewMedium(sched, Config{Range: 100}, 42, side, side, n, func(id int) geom.Point { return pts[id] })
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := m.AddRadio(i, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	return sched, m
}

// BenchmarkMediumBroadcastGrid measures the end-to-end cost of one
// broadcast airing — carrier sense, transmission, and reception
// resolution — on a 1000-radio medium at the paper's node density; the
// grid indexes touch only the sender's neighborhood.
func BenchmarkMediumBroadcastGrid(b *testing.B) {
	const n = 1000
	sched, m := paperDensityMedium(b, n)

	b.ReportAllocs()
	b.ResetTimer()
	// One frame object reused across iterations: the airing completes
	// (and the MAC drops its reference) before the next Send, and the
	// benchmark measures the medium, not frame allocation.
	f := &Frame{Dst: Broadcast, Bits: 8000}
	for i := 0; i < b.N; i++ {
		m.radios[i%n].Send(f)
		sched.Run(math.Inf(1))
	}
	b.ReportMetric(float64(m.stats.Delivered)/float64(b.N), "recv/op")
}

// BenchmarkMediumRetainedAir measures one airing's cost on a 10k-radio
// medium at the paper's density under steady load: an 8000-bit
// broadcast every 200 µs of simulated time, about 42 sends per airtime.
// The medium keeps an ended airing for one longest airtime plus a slot,
// so a few airtimes' worth of airings (under 200) stay retained. Each op
// advances the clock by one send interval; the cost per resolved airing
// should not grow with the world, whose retained air is world-wide while
// an airing's batch and interferers are local.
func BenchmarkMediumRetainedAir(b *testing.B) {
	const (
		n     = 10000
		every = 200e-6 // simulated seconds between sends
		bits  = 8000
	)
	sched, m := paperDensityMedium(b, n)
	// Warm up over four airtimes, past the first prunes, so the
	// retained air has reached its steady state and every op resolves
	// about one airing.
	warm := int(4 * m.frameAirtime(&Frame{Bits: bits}) / every)
	resolved := 0
	frames := make([]Frame, n)
	for i := range m.radios {
		frames[i] = Frame{Dst: Broadcast, Bits: bits}
		m.radios[i].onSent = func(*Frame, bool) { resolved++ }
	}
	// A stride coprime to n visits the radios in a scattered order.
	next := 0
	des.NewTicker(sched, every, 0, func() {
		m.radios[next].Send(&frames[next])
		next = (next + 7919) % n
	})
	step := 0
	run := func(k int) {
		for range k {
			step++
			sched.Run(float64(step) * every)
		}
	}
	run(warm) // fill the retained air to its steady state

	b.ReportAllocs()
	b.ResetTimer()
	resolved = 0
	run(b.N)
	b.StopTimer()
	if resolved == 0 {
		b.Fatal("no airing resolved")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(resolved), "ns/airing")
}
