package sim

import (
	"testing"

	"glr/internal/mobility"
)

func TestUnicastCallbackOutcomes(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	s.Mobility = MobilityStatic
	s.Region = mobility.Region{W: 100, H: 100} // all in range
	var outcomes []bool
	factory := func(n *Node) Protocol { return &directProtocol{} }
	w, err := NewWorld(s, factory)
	if err != nil {
		t.Fatal(err)
	}
	n0 := w.Node(0)
	w.Scheduler().At(1, func() {
		// Reachable destination.
		n0.Unicast(1, KindData, "payload", 800, func(ok bool) {
			outcomes = append(outcomes, ok)
		})
	})
	w.Scheduler().Run(5)
	if len(outcomes) != 1 || !outcomes[0] {
		t.Errorf("in-range unicast should succeed: %v", outcomes)
	}
}

func TestUnicastCallbackFailureOutOfRange(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	s.Mobility = MobilityStatic
	s.Range = 10 // tiny: nodes in 300×300 are isolated w.h.p.
	var outcomes []bool
	w, err := NewWorld(s, func(n *Node) Protocol { return &directProtocol{} })
	if err != nil {
		t.Fatal(err)
	}
	// Find a pair that is genuinely out of range.
	src, dst := -1, -1
	for i := 0; i < s.N && src == -1; i++ {
		for j := 0; j < s.N; j++ {
			if i != j && w.Node(i).Pos().Dist(w.Node(j).Pos()) > 3*s.Range {
				src, dst = i, j
				break
			}
		}
	}
	if src == -1 {
		t.Skip("no out-of-range pair in this placement")
	}
	w.Scheduler().At(1, func() {
		w.Node(src).Unicast(dst, KindData, "x", 800, func(ok bool) {
			outcomes = append(outcomes, ok)
		})
	})
	w.Scheduler().Run(10)
	if len(outcomes) != 1 || outcomes[0] {
		t.Errorf("out-of-range unicast should fail after retries: %v", outcomes)
	}
}

func TestFrameKindCounting(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	s.Mobility = MobilityStatic
	s.Region = mobility.Region{W: 100, H: 100}
	w, err := NewWorld(s, func(n *Node) Protocol { return &directProtocol{} })
	if err != nil {
		t.Fatal(err)
	}
	n0 := w.Node(0)
	w.Scheduler().At(1, func() {
		n0.Unicast(1, KindData, "d", 80, nil)
		n0.Unicast(1, KindAck, "a", 80, nil)
		n0.broadcast(KindControl, "c", 80)
	})
	w.Scheduler().Run(3)
	rep := w.Collector().Report()
	if rep.DataFrames != 1 {
		t.Errorf("DataFrames = %d, want 1", rep.DataFrames)
	}
	if rep.Acks != 1 {
		t.Errorf("Acks = %d, want 1", rep.Acks)
	}
	// Control includes beacons from all nodes plus ours.
	if rep.ControlFrames < 1 {
		t.Errorf("ControlFrames = %d", rep.ControlFrames)
	}
}

func TestNodeAccessors(t *testing.T) {
	s := smallScenario()
	w, err := NewWorld(s, func(n *Node) Protocol { return &directProtocol{} })
	if err != nil {
		t.Fatal(err)
	}
	n := w.Node(3)
	if n.ID() != 3 {
		t.Errorf("ID = %d", n.ID())
	}
	if n.NodeCount() != s.N {
		t.Errorf("NodeCount = %d", n.NodeCount())
	}
	if n.Range() != s.Range {
		t.Errorf("Range = %v", n.Range())
	}
	if n.Region() != s.Region {
		t.Errorf("Region = %v", n.Region())
	}
	if n.StorageLimit() != s.StorageLimit {
		t.Errorf("StorageLimit = %d", n.StorageLimit())
	}
	if n.Rand() == nil || n.Locations() == nil {
		t.Error("accessors returned nil")
	}
	if !s.Region.Contains(n.Pos()) {
		t.Error("node outside region")
	}
}

func TestBeaconBitsGrowWithNeighbors(t *testing.T) {
	if beaconBits(0) >= beaconBits(5) {
		t.Error("beacons advertising more neighbors must be larger")
	}
	if beaconBits(0) <= 0 {
		t.Error("beacons have a positive base size")
	}
}
