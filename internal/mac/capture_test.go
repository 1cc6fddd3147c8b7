package mac

import (
	"testing"

	"glr/internal/geom"
)

func TestCaptureEffectSavesStrongSignal(t *testing.T) {
	// Receiver at 10 m from its sender; interferer 180 m away (hidden
	// terminal, CS factor 1). Distance ratio 18 ⇒ power ratio 18⁴ ≫ 10:
	// the wanted frame must be captured.
	cfg := DefaultConfig(100)
	cfg.CSRangeFactor = 1.0
	cfg.VirtualCS = false
	n := newTestNet(t, cfg, []geom.Point{
		geom.Pt(0, 0),   // sender
		geom.Pt(10, 0),  // receiver (10 m from sender)
		geom.Pt(190, 0), // interferer: 180 m from receiver, hidden from sender
	})
	n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(1)
	got := 0
	for _, f := range n.recv[1] {
		if f.Src == 0 {
			got++
		}
	}
	if got != 1 {
		t.Errorf("strong signal should be captured; receiver got %d frames from sender 0", got)
	}
}

func TestCaptureDisabledCorruptsEverything(t *testing.T) {
	cfg := DefaultConfig(100)
	cfg.CSRangeFactor = 1.0
	cfg.VirtualCS = false
	cfg.CaptureRatio = 0 // any overlap corrupts
	n := newTestNet(t, cfg, []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(105, 0),
	})
	n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(1)
	for _, f := range n.recv[1] {
		if f.Src == 0 {
			t.Error("with capture disabled, overlapping frames must corrupt")
		}
	}
}

func TestCaptureComparablePowersStillCollide(t *testing.T) {
	// Receiver equidistant from both senders: ratio 1 < 10 ⇒ collision.
	cfg := DefaultConfig(100)
	cfg.CSRangeFactor = 1.0
	cfg.VirtualCS = false
	n := newTestNet(t, cfg, []geom.Point{
		geom.Pt(0, 0), geom.Pt(90, 0), geom.Pt(180, 0),
	})
	n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(1)
	if len(n.recv[1]) != 0 {
		t.Errorf("comparable powers must collide; receiver got %d frames", len(n.recv[1]))
	}
}

func TestVirtualCSProtectsReceiver(t *testing.T) {
	// Unicast 0→1; node 2 is hidden from 0 (CS factor 1, 180 m apart)
	// but within decode range of receiver 1. With virtual CS on, node
	// 2 defers instead of colliding.
	cfg := DefaultConfig(100)
	cfg.CSRangeFactor = 1.0
	cfg.VirtualCS = true
	n := newTestNet(t, cfg, []geom.Point{
		geom.Pt(0, 0), geom.Pt(90, 0), geom.Pt(180, 0),
	})
	f := &Frame{Dst: 1, Bits: 80000} // long frame: 2's send lands inside it
	n.sched.At(0, func() { n.radios[0].Send(f) })
	n.sched.At(0.01, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(2)
	if ok := n.sent[0][f]; !ok {
		t.Error("virtual CS should let the unicast complete without collision")
	}
	if n.medium.Stats().BusyDeferrals == 0 {
		t.Error("the hidden terminal should have deferred")
	}
}

func TestVirtualCSOffHiddenTerminalInterferes(t *testing.T) {
	// Same geometry with virtual CS off: node 2 transmits concurrently
	// and corrupts the long unicast at the receiver (requiring retries).
	cfg := DefaultConfig(100)
	cfg.CSRangeFactor = 1.0
	cfg.VirtualCS = false
	n := newTestNet(t, cfg, []geom.Point{
		geom.Pt(0, 0), geom.Pt(90, 0), geom.Pt(180, 0),
	})
	f := &Frame{Dst: 1, Bits: 80000}
	n.sched.At(0, func() { n.radios[0].Send(f) })
	n.sched.At(0.01, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(2)
	if n.medium.Stats().Collisions == 0 {
		t.Error("expected a hidden-terminal collision without virtual CS")
	}
}

func TestBroadcastNotProtectedByVirtualCS(t *testing.T) {
	// Virtual CS anchors on unicast receivers only; broadcasts carry no
	// reservation, so a hidden terminal still collides with them.
	cfg := DefaultConfig(100)
	cfg.CSRangeFactor = 1.0
	cfg.VirtualCS = true
	n := newTestNet(t, cfg, []geom.Point{
		geom.Pt(0, 0), geom.Pt(90, 0), geom.Pt(180, 0),
	})
	n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(1)
	if len(n.recv[1]) != 0 {
		t.Errorf("broadcast collision expected; receiver got %d frames", len(n.recv[1]))
	}
}

func TestSIFSPipelinesQueuedFrames(t *testing.T) {
	// Two frames queued together: the second starts SIFS after the
	// first completes, not a full DIFS+backoff later.
	cfg := DefaultConfig(100)
	n := newTestNet(t, cfg, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
	var arrivals []float64
	n.medium.radios[1].onRecv = func(*Frame) { arrivals = append(arrivals, n.sched.Now()) }
	n.sched.At(0, func() {
		n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000})
		n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000})
	})
	n.sched.Run(1)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	airtime := float64(cfg.HeaderBits+8000) / cfg.BitRate
	gap := arrivals[1] - arrivals[0]
	want := airtime + cfg.SIFS
	if gap < want-1e-9 || gap > want+cfg.DIFS+float64(cfg.CWMin)*cfg.SlotTime {
		t.Errorf("inter-frame gap %v, want ≈ %v", gap, want)
	}
}
