package mac

import (
	"math"
	"math/rand"
	"testing"

	"glr/internal/des"
	"glr/internal/geom"
)

// BenchmarkMediumBroadcastGrid measures the end-to-end cost of one
// broadcast airing — carrier sense, transmission, and reception
// resolution — on a 1000-radio medium at the paper's node density (50
// nodes per 1500×300 m); the grid indexes touch only the sender's
// neighborhood.
func BenchmarkMediumBroadcastGrid(b *testing.B) {
	const n = 1000
	cfg := DefaultConfig(100)

	// Fixed density: area grows linearly with the node count.
	area := float64(n) / (50.0 / (1500 * 300))
	side := math.Sqrt(area)

	sched := des.NewScheduler()
	m, err := NewMedium(sched, cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		if _, err := m.AddRadio(i, func() geom.Point { return p }, nil, nil); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	// One frame object reused across iterations: the airing completes
	// (and the MAC drops its reference) before the next Send, and the
	// benchmark measures the medium, not frame allocation.
	f := &Frame{Dst: Broadcast, Bits: 8000}
	for i := 0; i < b.N; i++ {
		m.radios[i%n].Send(f)
		sched.RunAll()
	}
	b.ReportMetric(float64(m.stats.Delivered)/float64(b.N), "recv/op")
}
