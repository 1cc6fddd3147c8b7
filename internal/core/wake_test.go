package core

import (
	"testing"

	"glr/internal/mobility"
	"glr/internal/sim"
)

// TestRouteCheckSleepsAndWakesOnCadence pins the route check's sleep
// rule on a two-node static world in which node 0 sends node 1 a message
// at t = 2 and another at t = 40:
//   - node 1, which never stores a message, runs no route check at all;
//   - node 0 runs checks only while its Store or Cache holds something,
//     and each of them at a point of its original cadence (its phase plus
//     whole check intervals, accumulated as the always-running check
//     accumulated them), the first one after each wake-up at the first
//     cadence point after the arrival;
//   - a churn restart while node 0 sleeps leaves it asleep.
func TestRouteCheckSleepsAndWakesOnCadence(t *testing.T) {
	s := sim.DefaultScenario(100)
	s.N = 2
	s.SimTime = 80
	s.Mobility = sim.MobilityStatic
	s.Region = mobility.Region{W: 50, H: 50}
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 1, At: 2}, {Src: 0, Dst: 1, At: 40}}
	w, nodes, _ := probedInstrumentedWorld(t, s, DefaultConfig())

	var checks [2][]float64
	for i, g := range nodes {
		next := g.checkFn
		g.checkFn = func() {
			checks[i] = append(checks[i], g.n.Now())
			next()
		}
		if g.checkArmed {
			t.Fatalf("node %d: route check armed before any message", i)
		}
	}
	g := nodes[0]
	interval := g.cfg.CheckInterval
	var cadence []float64 // node 0's cadence points over the run
	for c := g.nextCheck; c <= s.SimTime+interval; c += interval {
		cadence = append(cadence, c)
	}
	firstAfter := func(t float64) float64 {
		for _, c := range cadence {
			if c > t {
				return c
			}
		}
		return -1
	}

	sched := w.Scheduler()
	sched.Run(30)
	if g.checkArmed || g.StorageUsed() != 0 {
		t.Fatalf("t=30: node 0 holds %d messages, check armed %v; want delivered and asleep", g.StorageUsed(), g.checkArmed)
	}
	if len(checks[0]) < 2 || checks[0][0] != firstAfter(2) {
		t.Fatalf("node 0 checks %v: want the first at the first cadence point after t=2 (%v), then until its cache clears",
			checks[0], firstAfter(2))
	}
	asleepSince := checks[0][len(checks[0])-1]

	sched.At(35, func() { g.Restart() })
	sched.Run(39.5)
	if g.checkArmed {
		t.Fatal("a restart while asleep armed the route check")
	}
	if n := checks[0][len(checks[0])-1]; n != asleepSince {
		t.Fatalf("node 0 ran a check at %v while asleep (since %v)", n, asleepSince)
	}
	k := len(checks[0])

	w.Run()
	if len(checks[0]) == k || checks[0][k] != firstAfter(40) {
		t.Fatalf("node 0 checks after t=40 %v: want the first at the first cadence point after 40 (%v)", checks[0][k:], firstAfter(40))
	}
	i := 0
	for _, at := range checks[0] {
		for i < len(cadence) && cadence[i] < at {
			i++
		}
		if i == len(cadence) || cadence[i] != at {
			t.Fatalf("node 0 checked at %v, off its cadence %v + k·%v", at, cadence[0], interval)
		}
	}
	if len(checks[1]) != 0 {
		t.Errorf("node 1 never stores a message but ran route checks at %v", checks[1])
	}
	if len(checks[0]) > 12 {
		t.Errorf("node 0 ran %d route checks for two one-hop deliveries: %v", len(checks[0]), checks[0])
	}
	if rep := w.Collector().Report(); rep.Delivered != 2 {
		t.Errorf("delivered %d of 2 messages", rep.Delivered)
	}
}
