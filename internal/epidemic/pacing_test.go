package epidemic

import (
	"testing"

	"glr/internal/mobility"
	"glr/internal/sim"
)

func TestTokenBucketPacesTransfers(t *testing.T) {
	// A static pair with more messages than the data budget can move in
	// the window. The bucket starts empty, so the count of transferred
	// messages is bounded by rate×time.
	s := denseScenario(31)
	s.Mobility = sim.MobilityStatic
	s.N = 2
	s.Region = mobility.Region{W: 100, H: 100} // guaranteed in range
	s.SimTime = 20
	s.Traffic = nil
	// Queue everything at t=0, before either node's first hello: summary
	// vectors are exchanged only when a contact forms, so traffic queued
	// after both first hellos would never be offered to the static peer.
	const queued = 120
	for i := 0; i < queued; i++ {
		s.Traffic = append(s.Traffic, sim.TrafficItem{Src: 0, Dst: 1, At: 0})
	}
	// 20 s at 3 msg/s is the ceiling for node 1's receptions; beacons
	// and sv overhead make the practical number lower (unpaced, the pair
	// moves 90 in the window). All messages are distinct (Seq differs),
	// dst is node 1.
	maxExpected := int(dataSendRate * s.SimTime)
	if maxExpected >= queued {
		t.Fatalf("pacing ceiling %d admits all %d messages; the test is vacuous", maxExpected, queued)
	}
	factory, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(s, factory)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.Delivered > maxExpected {
		t.Errorf("delivered %d messages; pacing ceiling is %d", r.Delivered, maxExpected)
	}
	if r.Delivered == 0 {
		t.Error("pacing must not starve transfers entirely")
	}
}

func TestRetrySweepGivesUpEventually(t *testing.T) {
	// wants entries for unreachable peers must be garbage-collected.
	s := denseScenario(34)
	s.SimTime = 60
	s.Traffic = nil
	factory, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var eps []*Epidemic
	w, err := sim.NewWorld(s, func(n *sim.Node) sim.Protocol {
		p := factory(n)
		eps = append(eps, p.(*Epidemic))
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	for i, e := range eps {
		if len(e.wants) > 1000 {
			t.Errorf("node %d wants map grew unboundedly: %d", i, len(e.wants))
		}
	}
}
