package sim

import (
	"math"
	"reflect"
	"testing"

	"glr/internal/dtn"
	"glr/internal/fault"
	"glr/internal/geom"
	"glr/internal/mac"
	"glr/internal/metrics"
	"glr/internal/mobility"
)

// sentProtocol is directProtocol recording every OnSent call in order.
type sentProtocol struct {
	directProtocol
	sent []sentCall
}

type sentCall struct {
	payload any
	ok      bool
}

func (p *sentProtocol) OnSent(payload any, ok bool) {
	p.sent = append(p.sent, sentCall{payload, ok})
}

func TestUnicastCallbackOutcomes(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	s.Mobility = MobilityStatic
	s.Region = mobility.Region{W: 100, H: 100} // all in range
	w, err := NewWorld(s, func(*Node) Protocol { return &sentProtocol{} })
	if err != nil {
		t.Fatal(err)
	}
	n0 := w.Node(0)
	w.Scheduler().At(1, func() {
		// Reachable destination.
		n0.Unicast(1, KindData, "payload", 800)
	})
	w.Scheduler().Run(5)
	if got := n0.proto.(*sentProtocol).sent; len(got) != 1 || got[0] != (sentCall{"payload", true}) {
		t.Errorf("in-range unicast should reach OnSent once, ok: %v", got)
	}
}

func TestUnicastCallbackFailureOutOfRange(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	s.Mobility = MobilityStatic
	s.Range = 10 // tiny: nodes in 300×300 are isolated w.h.p.
	w, err := NewWorld(s, func(*Node) Protocol { return &sentProtocol{} })
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
		w.Node(src).Unicast(dst, KindData, "x", 800)
	})
	w.Scheduler().Run(10)
	if got := w.Node(src).proto.(*sentProtocol).sent; len(got) != 1 || got[0] != (sentCall{"x", false}) {
		t.Errorf("out-of-range unicast should reach OnSent once, failed after retries: %v", got)
	}
}

// TestUnicastFromCrashedSender: a unicast from a node that churn has
// crashed reaches OnSent(payload, false) before Unicast returns, once,
// and counts no frame.
func TestUnicastFromCrashedSender(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	s.Faults = []fault.Spec{{Kind: fault.Churn, Rate: 0.05, Duration: 10}}
	w, err := NewWorld(s, func(*Node) Protocol { return &sentProtocol{} })
	if err != nil {
		t.Fatal(err)
	}
	crashed := -1
	w.SetFaultHook(func(e fault.Event) {
		if e.Kind != fault.Churn || e.Restored || crashed >= 0 {
			return
		}
		crashed = e.Node
		if !w.nodeDown(crashed) {
			t.Fatalf("node %d is up at its crash event", crashed)
		}
		before := w.Collector().Report()
		w.Node(crashed).Unicast((crashed+1)%s.N, KindData, "lost", 800)
		if got := w.Node(crashed).proto.(*sentProtocol).sent; len(got) != 1 || got[0] != (sentCall{"lost", false}) {
			t.Errorf("a crashed sender's unicast reached OnSent as %v before Unicast returned, want once, failed", got)
		}
		if after := w.Collector().Report(); after.DataFrames != before.DataFrames {
			t.Errorf("a crashed sender's unicast counted %d data frames", after.DataFrames-before.DataFrames)
		}
	})
	w.Scheduler().Run(s.SimTime)
	if crashed < 0 {
		t.Fatal("churn crashed no node")
	}
	if got := w.Node(crashed).proto.(*sentProtocol).sent; len(got) != 1 {
		t.Errorf("the crashed sender's unicast reached OnSent %d times: %v", len(got), got)
	}
}

// TestUnicastQueueOverflow: the unicast that finds the link-layer queue
// full reaches OnSent(payload, false) before Unicast returns.
func TestUnicastQueueOverflow(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	s.Mobility = MobilityStatic
	s.Region = mobility.Region{W: 100, H: 100}
	w, err := NewWorld(s, func(*Node) Protocol { return &sentProtocol{} })
	if err != nil {
		t.Fatal(err)
	}
	n0 := w.Node(0)
	p0 := n0.proto.(*sentProtocol)
	sends := 0
	w.Scheduler().At(1, func() {
		for sends < 1000 && len(p0.sent) == 0 {
			n0.Unicast(1, KindData, sends, 800)
			sends++
		}
	})
	w.Scheduler().Run(1)
	if len(p0.sent) != 1 || p0.sent[0] != (sentCall{sends - 1, false}) {
		t.Fatalf("after %d unicasts in one instant OnSent saw %v, want only the last, failed", sends, p0.sent)
	}
	if sends < 2 || w.Medium().Stats().QueueDrops != 1 {
		t.Fatalf("%d unicasts, %d queue drops: the last one did not overflow a full queue", sends, w.Medium().Stats().QueueDrops)
	}
}

// chatterLog is what every chatterProtocol of one world records.
type chatterLog struct {
	quiet      float64 // no unicast from here on
	calls      []int   // OnSent calls per payload; payloads are 0, 1, 2, …
	whileDown  int     // unicasts from a crashed sender
	ok, failed int
}

// chatterProtocol is directProtocol that also unicasts a fresh payload
// to a random node every 0.2 s until the log's quiet time, whether it
// can hear that node or not, so its unicasts succeed, fail after the
// MAC's retries and, under churn, leave crashed senders.
type chatterProtocol struct {
	directProtocol
	log *chatterLog
}

func (p *chatterProtocol) Init(n *Node) {
	p.directProtocol.Init(n)
	n.After(n.Rand().Float64()*0.2, p.chat)
}

func (p *chatterProtocol) chat() {
	if p.n.Now() >= p.log.quiet {
		return
	}
	dst := p.n.Rand().IntN(p.n.NodeCount() - 1)
	if dst >= p.n.ID() {
		dst++
	}
	if p.n.world.nodeDown(p.n.ID()) {
		p.log.whileDown++
	}
	payload := len(p.log.calls)
	p.log.calls = append(p.log.calls, 0)
	p.n.Unicast(dst, KindData, payload, 800)
	p.n.After(0.2, p.chat)
}

func (p *chatterProtocol) OnSent(payload any, ok bool) {
	chat, isChat := payload.(int)
	if !isChat {
		return // one of directProtocol's broadcasts
	}
	p.log.calls[chat]++
	if ok {
		p.log.ok++
	} else {
		p.log.failed++
	}
}

// chatterWorld is a churn world of chatterProtocols on a strip wider
// than the radio range, quiet for its last 20 s so every unicast
// resolves before the horizon.
func chatterWorld(t *testing.T) (*World, *chatterLog) {
	t.Helper()
	s := smallScenario()
	s.SimTime = 120
	s.Region = mobility.Region{W: 1200, H: 300}
	s.Faults = []fault.Spec{{Kind: fault.Churn, Rate: 0.02, Duration: 10}}
	log := &chatterLog{quiet: s.SimTime - 20}
	w, err := NewWorld(s, func(*Node) Protocol { return &chatterProtocol{log: log} })
	if err != nil {
		t.Fatal(err)
	}
	return w, log
}

// TestUnicastReachesOnSentOnce: in a churn world, every payload passed
// to Unicast reaches OnSent exactly once, whether the MAC delivered it,
// gave up on it, or its sender was down.
func TestUnicastReachesOnSentOnce(t *testing.T) {
	w, log := chatterWorld(t)
	w.Run()
	for payload, n := range log.calls {
		if n != 1 {
			t.Fatalf("payload %d reached OnSent %d times, want 1", payload, n)
		}
	}
	if log.ok == 0 || log.failed == 0 || log.whileDown == 0 {
		t.Fatalf("%d unicasts: %d delivered, %d failed, %d from crashed senders; want some of each",
			len(log.calls), log.ok, log.failed, log.whileDown)
	}
}

// TestFramePoolOracle runs the churn world of chatterProtocols twice,
// once reusing released hello and frame boxes and advertised lists and
// once handing each to a poison hook that overwrites it and never reuses
// it, and requires identical reports, OnSent outcomes, and final
// neighbor, two-hop and location tables. A read of a hello or frame box
// after its release reads poison in the second run (a hello from -1 at a
// NaN position, a frame addressed from and to -1), and so does a row
// reading an advertised list after its ring slot came round (advertised
// neighbors with id -1 at NaN positions), so the runs part.
func TestFramePoolOracle(t *testing.T) {
	type run struct {
		report    metrics.Report
		log       chatterLog
		neighbors [][]dtn.NeighborNeighbor
		twoHop    [][]geom.Point
		locations [][]dtn.LocationEntry
	}
	var beacons, frames, lists int
	do := func(poison bool) run {
		w, log := chatterWorld(t)
		if poison {
			nan := math.NaN()
			w.beacons.Poison = func(bf *beaconFrame) {
				beacons++
				bf.b = Beacon{From: -1, Pos: geom.Point{X: nan, Y: nan}, Time: nan}
				bf.frame = mac.Frame{Src: -1, Dst: -1, Bits: -1, Payload: bf}
			}
			w.frames.Poison = func(f *mac.Frame) {
				frames++
				*f = mac.Frame{Src: -1, Dst: -1, Bits: -1, Payload: "poison"}
			}
			w.PoisonAdverts(func() { lists++ })
		}
		out := run{report: w.Run(), log: *log}
		var seen dtn.IDMarks
		for i := range w.cfg.N {
			n := w.Node(i)
			out.neighbors = append(out.neighbors, n.Neighbors().AppendAdvertised(nil))
			_, pts := n.Neighbors().AppendTwoHop(nil, nil, i, n.Pos(), &seen)
			out.twoHop = append(out.twoHop, pts)
			var locs []dtn.LocationEntry
			for j := range w.cfg.N {
				if e, ok := n.Locations().Get(j); ok {
					locs = append(locs, e)
				}
			}
			out.locations = append(out.locations, locs)
		}
		return out
	}
	reuse := do(false)
	oracle := do(true)
	if !reflect.DeepEqual(reuse.report, oracle.report) {
		t.Fatalf("reports differ:\n  reusing: %+v\n  poison:  %+v", reuse.report, oracle.report)
	}
	if !reflect.DeepEqual(reuse.log, oracle.log) {
		t.Fatal("OnSent outcomes differ between the reusing and the poisoning run")
	}
	if !reflect.DeepEqual(reuse.neighbors, oracle.neighbors) || !reflect.DeepEqual(reuse.twoHop, oracle.twoHop) ||
		!reflect.DeepEqual(reuse.locations, oracle.locations) {
		t.Fatal("final neighbor, two-hop or location tables differ between the reusing and the poisoning run")
	}
	if beacons == 0 || frames == 0 || lists == 0 || reuse.report.Delivered == 0 {
		t.Fatalf("world too idle to test the pools: %d hellos, %d frames and %d advertised lists released, %d delivered",
			beacons, frames, lists, reuse.report.Delivered)
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
		n0.Unicast(1, KindData, "d", 80)
		n0.Unicast(1, KindAck, "a", 80)
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
