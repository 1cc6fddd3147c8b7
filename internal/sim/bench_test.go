package sim

import (
	"math"
	"testing"

	"glr/internal/dtn"
	"glr/internal/mobility"
)

// nopProtocol isolates the node/MAC beacon plane: no routing, no
// traffic — every cost measured is table bookkeeping, pooled hello
// frames, and medium resolution.
type nopProtocol struct{}

func (nopProtocol) Init(*Node)                      {}
func (nopProtocol) OnMessageGenerated(*dtn.Message) {}
func (nopProtocol) OnFrame(any, int)                {}
func (nopProtocol) OnSent(any, bool)                {}
func (nopProtocol) OnBeacon(Beacon)                 {}
func (nopProtocol) StorageUsed() int                { return 0 }

// BenchmarkBeaconTickAggregated measures one full beacon interval of a
// 500-node world at the paper's density: every node broadcasts its
// hello, every receiver refreshes its neighbor/location tables, and the
// medium resolves all receptions. This is the simulator's steady-state
// load with routing factored out.
func BenchmarkBeaconTickAggregated(b *testing.B) {
	const n = 500
	area := float64(n) / (50.0 / (1500 * 300))
	h := math.Sqrt(area / 5)

	s := DefaultScenario(100)
	s.N = n
	s.Region = mobility.Region{W: 5 * h, H: h}
	// The horizon covers the warm-up plus b.N beacon intervals, which is
	// all the benchmark steps; NewWorld rejects horizons whose waypoint
	// legs exceed MaxLegsPerNode.
	const warmup = 3
	s.SimTime = float64(warmup+b.N) * beaconInterval

	w, err := NewWorld(s, func(*Node) Protocol { return nopProtocol{} })
	if err != nil {
		b.Fatal(err)
	}
	// Warm up: let tables, pools, and the spatial index reach steady
	// state before measuring.
	until := warmup * beaconInterval
	w.Scheduler().Run(until)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		until += beaconInterval
		w.Scheduler().Run(until)
	}
}

// BenchmarkNewWorldGiant times only sim.NewWorld for a 10000-node
// waypoint world at the paper's density on a 5:1 strip: building the
// medium, the mobility models, every node's tables and random streams,
// and the beacon phases. Its B/op fails the gate if set-up goes back to
// a kilobyte-scale per-node table such as a math/rand (v1) source.
func BenchmarkNewWorldGiant(b *testing.B) {
	const n = 10000
	area := float64(n) / (50.0 / (1500 * 300))
	h := math.Sqrt(area / 5)

	s := DefaultScenario(100)
	s.N = n
	s.Region = mobility.Region{W: 5 * h, H: h}
	s.SimTime = 15

	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewWorld(s, func(*Node) Protocol { return nopProtocol{} }); err != nil {
			b.Fatal(err)
		}
	}
}
