package epidemic

import (
	"testing"

	"glr/internal/mobility"
	"glr/internal/sim"
)

func TestTokenBucketPacesTransfers(t *testing.T) {
	// A static pair with many messages: with a tight data budget, the
	// count of transferred messages over a fixed window is bounded by
	// rate×time + burst.
	s := denseScenario(31)
	s.Mobility = sim.MobilityStatic
	s.N = 2
	s.Region = mobility.Region{W: 100, H: 100} // guaranteed in range
	s.SimTime = 60
	s.Traffic = nil
	// Queue everything at t=0, before either node's first hello: summary
	// vectors are exchanged only when a contact forms, so traffic queued
	// after both first hellos would never be offered to the static peer.
	for i := 0; i < 120; i++ {
		s.Traffic = append(s.Traffic, sim.TrafficItem{Src: 0, Dst: 1, At: 0})
	}
	cfg := DefaultConfig()
	cfg.DataSendRate = 2 // 2 msgs/s
	factory, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var instances []*Epidemic
	w, err := sim.NewWorld(s, func(n *sim.Node) sim.Protocol {
		p := factory(n)
		instances = append(instances, p.(*Epidemic))
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	// 60 s at 2 msg/s + burst(maxBatch) is the ceiling for node 1's
	// receptions; beacons and sv overhead make the practical number
	// lower. All messages are distinct (Seq differs), dst is node 1.
	maxExpected := int(cfg.DataSendRate*s.SimTime) + maxBatch
	if r.Delivered > maxExpected {
		t.Errorf("delivered %d messages; pacing ceiling is %d", r.Delivered, maxExpected)
	}
	if r.Delivered == 0 {
		t.Error("pacing must not starve transfers entirely")
	}
	_ = instances
}

func TestUnpacedTransfersFaster(t *testing.T) {
	run := func(rate float64) int {
		s := denseScenario(32)
		s.Mobility = sim.MobilityStatic
		s.N = 2
		s.Region = mobility.Region{W: 100, H: 100}
		s.SimTime = 30
		s.Traffic = nil
		// At t=0, before any hello: see TestTokenBucketPacesTransfers.
		for i := 0; i < 100; i++ {
			s.Traffic = append(s.Traffic, sim.TrafficItem{Src: 0, Dst: 1, At: 0})
		}
		cfg := DefaultConfig()
		cfg.DataSendRate = rate
		factory, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sim.NewWorld(s, factory)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run().Delivered
	}
	paced := run(2)
	unpaced := run(0) // 0 disables pacing
	if unpaced <= paced {
		t.Errorf("unpaced (%d) should deliver more than paced (%d) in the window", unpaced, paced)
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
