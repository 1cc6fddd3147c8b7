package mac

import (
	"testing"

	"glr/internal/geom"
)

// A receiver 95 m from its sender and an interferer 160 m beyond it, on
// one line: the interferer is 255 m from the sender, beyond the 200 m
// carrier-sense range (hidden), and its power at the receiver is
// (160/95)⁴ ≈ 8 times weaker than the sender's, under the capture ratio
// of 10, so it corrupts the reception.
var hiddenLine = []geom.Point{geom.Pt(0, 0), geom.Pt(95, 0), geom.Pt(255, 0)}

func TestCaptureEffectSavesStrongSignal(t *testing.T) {
	// Receiver at 10 m from its sender; interferer 195 m from the
	// receiver and 205 m from the sender (hidden from it). Distance
	// ratio 19.5 ⇒ power ratio 19.5⁴ ≫ 10: the wanted frame must be
	// captured.
	n := newTestNet(t, Config{Range: 100}, []geom.Point{
		geom.Pt(0, 0),   // sender
		geom.Pt(10, 0),  // receiver (10 m from sender)
		geom.Pt(205, 0), // interferer: 195 m from receiver, hidden from sender
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
	if c := n.medium.Stats().Collisions; c != 0 {
		t.Errorf("Collisions = %d, want 0", c)
	}
}

func TestCaptureComparablePowersStillCollide(t *testing.T) {
	// Receiver 95 m from its sender, hidden interferer D m beyond it:
	// the frame survives only if (D/95)⁴ reaches the capture ratio of
	// 10, that is D ≥ 168.9 m.
	for _, tc := range []struct {
		d        float64
		captured bool
	}{{160, false}, {168, false}, {170, true}} {
		n := newTestNet(t, Config{Range: 100}, []geom.Point{geom.Pt(0, 0), geom.Pt(95, 0), geom.Pt(95+tc.d, 0)})
		n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
		n.sched.At(0, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
		n.sched.Run(1)
		if got := len(n.recv[1]) == 1; got != tc.captured {
			t.Errorf("interferer %v m beyond the receiver: receiver got %d frames, captured should be %v",
				tc.d, len(n.recv[1]), tc.captured)
		}
	}
}

// virtualCSLine is a unicast sender 0 whose receiver 1 is 250 m away,
// beyond reception range (as a stale neighbor entry leaves it), radio 2
// 80 m from the receiver and 330 m from the sender (hidden from it), and
// radio 3, which hears only radio 2. Virtual carrier sense reaches
// beyond the sender's carrier-sense disk only around such a receiver:
// one within reception range has its whole reservation inside the
// sender's 2×Range disk.
var virtualCSLine = []geom.Point{geom.Pt(0, 0), geom.Pt(250, 0), geom.Pt(330, 0), geom.Pt(400, 0)}

func TestVirtualCSProtectsReceiver(t *testing.T) {
	// A long unicast 0→1 reserves the channel around receiver 1, so
	// radio 2 defers instead of transmitting into it.
	n := newTestNet(t, Config{Range: 100}, virtualCSLine)
	f := &Frame{Dst: 1, Bits: 80000} // long frame: 2's send lands inside it
	n.sched.At(0, func() { n.radios[0].Send(f) })
	n.sched.At(0.01, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(2)
	if n.medium.Stats().BusyDeferrals == 0 {
		t.Error("the station near the receiver should have deferred")
	}
	if len(n.recv[3]) != 1 {
		t.Errorf("radio 3 received %d frames, want radio 2's one frame after the deferral", len(n.recv[3]))
	}
}

func TestBroadcastNotProtectedByVirtualCS(t *testing.T) {
	// Virtual CS anchors on unicast receivers only; a broadcast carries
	// no reservation, so on the same line radio 2 transmits at once.
	n := newTestNet(t, Config{Range: 100}, virtualCSLine)
	n.sched.At(0, func() { n.radios[0].Send(&Frame{Dst: Broadcast, Bits: 80000}) })
	n.sched.At(0.01, func() { n.radios[2].Send(&Frame{Dst: Broadcast, Bits: 8000}) })
	n.sched.Run(2)
	if d := n.medium.Stats().BusyDeferrals; d != 0 {
		t.Errorf("BusyDeferrals = %d, want 0: a broadcast reserves nothing", d)
	}
	if len(n.recv[3]) != 1 {
		t.Errorf("radio 3 received %d frames, want radio 2's one frame", len(n.recv[3]))
	}
}

func TestSIFSPipelinesQueuedFrames(t *testing.T) {
	// Two frames queued together: the second starts SIFS after the
	// first completes, not a full DIFS+backoff later.
	n := newTestNet(t, Config{Range: 100}, []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)})
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
	airtime := float64(headerBits+8000) / bitRate
	gap := arrivals[1] - arrivals[0]
	want := airtime + sifs
	if gap < want-1e-9 || gap > want+difs+float64(cwMin)*slotTime {
		t.Errorf("inter-frame gap %v, want ≈ %v", gap, want)
	}
}
