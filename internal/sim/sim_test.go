package sim

import (
	"math"
	"testing"

	"glr/internal/des"
	"glr/internal/dtn"
	"glr/internal/geom"
	"glr/internal/mac"
	"glr/internal/metrics"
	"glr/internal/mobility"
)

// directProtocol is a minimal test protocol: sources broadcast each
// message once per check interval until its destination has it;
// destinations report delivery. It exercises node wiring, beacons,
// frames, and metrics without any routing intelligence.
type directProtocol struct {
	n       *Node
	pending []*dtn.Message
	got     map[dtn.MessageID]bool // messages delivered here
}

func (p *directProtocol) Init(n *Node) {
	p.n = n
	n.After(0.5, p.tick)
}

func (p *directProtocol) tick() {
	kept := p.pending[:0]
	for _, m := range p.pending {
		if !p.delivered(m) {
			p.n.broadcast(KindData, *m, m.PayloadBits)
			kept = append(kept, m)
		}
	}
	p.pending = kept
	p.n.After(0.5, p.tick)
}

// delivered reports whether m's destination has received it. The source
// reads the destination's state directly, in place of an acknowledgment.
func (p *directProtocol) delivered(m *dtn.Message) bool {
	dst, ok := p.n.world.nodes[m.Dst].proto.(*directProtocol)
	return ok && dst.got[m.ID]
}

// broadcast queues a broadcast frame, counted under kind, as Unicast
// queues a unicast one. The protocols only unicast (beacons are the
// node's own); the test protocols here flood with it.
func (n *Node) broadcast(kind FrameKind, payload any, bits int) bool {
	if n.world.nodeDown(n.id) {
		return false
	}
	n.countFrame(kind)
	f := n.world.takeFrame()
	f.Dst, f.Bits, f.Payload = mac.Broadcast, bits, payload
	return n.radio.Send(f)
}

func (p *directProtocol) OnMessageGenerated(m *dtn.Message) {
	p.pending = append(p.pending, m)
}

func (p *directProtocol) OnFrame(payload any, from int) {
	m, ok := payload.(dtn.Message)
	if !ok {
		return
	}
	m.Hops++
	if m.Dst == p.n.ID() {
		if p.got == nil {
			p.got = make(map[dtn.MessageID]bool)
		}
		p.got[m.ID] = true
		p.n.ReportDelivered(&m)
	}
}

func (p *directProtocol) OnBeacon(Beacon)  {}
func (p *directProtocol) StorageUsed() int { return len(p.pending) }

func directFactory(*Node) Protocol { return &directProtocol{} }

func smallScenario() Scenario {
	s := DefaultScenario(250)
	s.N = 10
	s.SimTime = 60
	s.Region = mobility.Region{W: 300, H: 300}
	s.Traffic = []TrafficItem{{Src: 0, Dst: 1, At: 1}, {Src: 2, Dst: 3, At: 2}}
	return s
}

func TestScenarioValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"one node", func(s *Scenario) { s.N = 1 }},
		{"zero range", func(s *Scenario) { s.Range = 0 }},
		{"zero time", func(s *Scenario) { s.SimTime = 0 }},
		{"bad region", func(s *Scenario) { s.Region.W = 0 }},
		{"negative storage", func(s *Scenario) { s.StorageLimit = -1 }},
		{"traffic self-loop", func(s *Scenario) { s.Traffic = []TrafficItem{{Src: 1, Dst: 1, At: 1}} }},
		{"traffic out of range", func(s *Scenario) { s.Traffic = []TrafficItem{{Src: 0, Dst: 99, At: 1}} }},
		{"traffic after horizon", func(s *Scenario) { s.Traffic = []TrafficItem{{Src: 0, Dst: 1, At: 1e9}} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := smallScenario()
			tt.mutate(&s)
			if s.Validate() == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := smallScenario().Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestPaperTraffic(t *testing.T) {
	full := PaperTraffic(1980)
	if len(full) != 1980 {
		t.Fatalf("full pattern has %d items, want 1980", len(full))
	}
	// Every source sends exactly 44 messages; no self-loops; 1/s rate.
	perSrc := map[int]int{}
	seen := map[[2]int]bool{}
	for i, ti := range full {
		if ti.Src == ti.Dst {
			t.Fatal("self-loop in paper traffic")
		}
		if ti.Src < 0 || ti.Src >= 45 || ti.Dst < 0 || ti.Dst >= 45 {
			t.Fatal("endpoints outside the 45-node subset")
		}
		if ti.At != float64(i+1) {
			t.Fatalf("message %d at %v, want %d (1 per second)", i, ti.At, i+1)
		}
		perSrc[ti.Src]++
		key := [2]int{ti.Src, ti.Dst}
		if seen[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		seen[key] = true
	}
	for src, cnt := range perSrc {
		if cnt != 44 {
			t.Fatalf("source %d sends %d messages, want 44", src, cnt)
		}
	}
	// Prefixes interleave across sources.
	prefix := PaperTraffic(90)
	if len(prefix) != 90 {
		t.Fatalf("prefix has %d items", len(prefix))
	}
	srcs := map[int]bool{}
	for _, ti := range prefix[:45] {
		srcs[ti.Src] = true
	}
	if len(srcs) != 45 {
		t.Errorf("first 45 messages use %d sources, want 45 (round-robin)", len(srcs))
	}
	// Overflow clamps.
	if got := len(PaperTraffic(5000)); got != 1980 {
		t.Errorf("overflow request returned %d items", got)
	}
}

func TestUniformTraffic(t *testing.T) {
	items := UniformTraffic(10, 50, 2.0, 7)
	if len(items) != 50 {
		t.Fatalf("got %d items", len(items))
	}
	for _, ti := range items {
		if ti.Src == ti.Dst || ti.Src < 0 || ti.Src >= 10 || ti.Dst < 0 || ti.Dst >= 10 {
			t.Fatalf("bad endpoints %+v", ti)
		}
	}
	if items[10].At != 5.0 {
		t.Errorf("rate wrong: item 10 at %v, want 5", items[10].At)
	}
	again := UniformTraffic(10, 50, 2.0, 7)
	for i := range items {
		if items[i] != again[i] {
			t.Fatal("uniform traffic not deterministic")
		}
	}
}

func TestWorldEndToEndDirectProtocol(t *testing.T) {
	w, err := NewWorld(smallScenario(), directFactory)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.Generated != 2 {
		t.Fatalf("generated %d, want 2", r.Generated)
	}
	// 300×300 region, 250 m range: nearly always in range; direct
	// rebroadcast must deliver both messages quickly.
	if r.Delivered != 2 {
		t.Fatalf("delivered %d/2; report %+v", r.Delivered, r)
	}
	if r.AvgLatency <= 0 || r.AvgLatency > 30 {
		t.Errorf("suspicious latency %v", r.AvgLatency)
	}
	if r.AvgHops < 1 {
		t.Errorf("hops = %v, want ≥ 1", r.AvgHops)
	}
	if r.ControlFrames == 0 {
		t.Error("beacons should be counted as control frames")
	}
}

func TestWorldDeterministicAcrossRuns(t *testing.T) {
	run := func() any {
		w, err := NewWorld(smallScenario(), directFactory)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run()
	}
	if run() != run() {
		t.Error("identical seeds must produce identical reports")
	}
}

func TestWorldSetsIndexSlackForMobility(t *testing.T) {
	// The world must widen spatial-index queries to cover the drift a
	// node can accumulate between two Reindex ticks.
	// NewWorld hands the scenario's macConfig to the medium as is.
	s := smallScenario()
	want := s.MaxSpeed*beaconInterval + 1
	if got := s.macConfig().IndexSlack; got != want {
		t.Errorf("IndexSlack = %v, want %v", got, want)
	}
}

// fullScanMAC returns s's MAC configuration with a radio-index slack
// spanning the whole region, so every index query returns every radio: a
// full scan with the grid's candidate order. (The exact per-frame
// equivalence of the grid and the naive medium lives in internal/mac.)
func fullScanMAC(s Scenario) mac.Config {
	mc := s.macConfig()
	mc.IndexSlack = math.Hypot(s.Region.W, s.Region.H) + s.Range
	return mc
}

func TestWorldNaiveMediumMatchesGridDelivery(t *testing.T) {
	// The world's derived index slack must reproduce the full-scan
	// medium's run exactly, delivering all traffic.
	run := func(s Scenario, macCfg mac.Config) metrics.Report {
		w, err := newWorld(s, directFactory, macCfg)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run()
	}
	s := smallScenario()
	grid := run(s, s.macConfig())
	if full := run(s, fullScanMAC(s)); full != grid {
		t.Errorf("grid medium diverged from the full scan:\ngrid: %+v\nfull: %+v", grid, full)
	}
	if grid.Delivered != grid.Generated {
		t.Errorf("grid medium delivered %d/%d", grid.Delivered, grid.Generated)
	}
}

func TestWorldSeedChangesOutcome(t *testing.T) {
	// Different seeds must at least produce different node trajectories
	// (metric digests can coincide in tiny uncontended scenarios).
	s1 := smallScenario()
	s2 := smallScenario()
	s2.Seed = 999
	w1, _ := NewWorld(s1, directFactory)
	w2, _ := NewWorld(s2, directFactory)
	same := true
	for i := 0; i < s1.N; i++ {
		if !w1.Node(i).Pos().Eq(w2.Node(i).Pos()) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should place nodes differently")
	}
}

func TestBeaconsPopulateNeighborTables(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	w, err := NewWorld(s, directFactory)
	if err != nil {
		t.Fatal(err)
	}
	w.Scheduler().Run(5)
	// In a 300×300 region with 250 m range, most nodes hear most others.
	heard := 0
	for i := 0; i < s.N; i++ {
		heard += len(w.Node(i).Neighbors().AppendAdvertised(nil))
	}
	if heard < s.N { // extremely conservative floor
		t.Errorf("after 5 s of beaconing only %d neighbor rows exist", heard)
	}
	// Two-hop info: at least one node must know a neighbor's neighbor.
	twoHop := false
	for i := 0; i < s.N && !twoHop; i++ {
		nt := w.Node(i).Neighbors()
		for _, nn := range nt.AppendAdvertised(nil) {
			if r, _ := nt.Get(nn.ID); len(r.Neighbors) > 0 {
				twoHop = true
				break
			}
		}
	}
	if !twoHop {
		t.Error("beacons should carry 1-hop neighbor lists after warm-up")
	}
}

func TestNeighborExpiry(t *testing.T) {
	s := smallScenario()
	s.Traffic = nil
	w, err := NewWorld(s, directFactory)
	if err != nil {
		t.Fatal(err)
	}
	w.Scheduler().Run(5)
	n := w.Node(0)
	if len(n.Neighbors().AppendAdvertised(nil)) == 0 {
		t.Skip("node 0 heard nobody in this topology")
	}
	// Tables must drop rows not refreshed within the expiry window; we
	// simulate radio silence by advancing time without beacons. Stop all
	// beaconing by running a fresh world past its horizon: instead, query
	// with a manual Expire through the accessor after advancing the
	// clock with an empty event.
	w.Scheduler().At(5+neighborExpiry+1, func() {})
	w.Scheduler().Run(5 + neighborExpiry + 1)
	// Beacons kept arriving, so rows should still be fresh.
	if len(n.Neighbors().AppendAdvertised(nil)) == 0 {
		t.Error("live beaconing should keep neighbor rows fresh")
	}
}

func TestOraclePosition(t *testing.T) {
	w, err := NewWorld(smallScenario(), directFactory)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !w.Node(0).OraclePosition(i).Eq(w.Node(i).Pos()) {
			t.Fatal("oracle must report true positions")
		}
	}
}

func TestStorageSampling(t *testing.T) {
	s := smallScenario()
	w, err := NewWorld(s, directFactory)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	// The direct protocol holds pending messages until delivery, so some
	// peak storage must have been observed.
	if r.MaxPeakStorage < 1 {
		t.Errorf("MaxPeakStorage = %d, want ≥ 1", r.MaxPeakStorage)
	}
	if r.AvgPeakStorage <= 0 {
		t.Errorf("AvgPeakStorage = %v, want > 0", r.AvgPeakStorage)
	}
}

func TestStaticMobilityWorld(t *testing.T) {
	s := smallScenario()
	s.Mobility = MobilityStatic
	w, err := NewWorld(s, directFactory)
	if err != nil {
		t.Fatal(err)
	}
	p0 := w.Node(3).Pos()
	w.Run()
	if !w.Node(3).Pos().Eq(p0) {
		t.Error("static nodes must not move")
	}
}

func TestNilProtocolFactoryRejected(t *testing.T) {
	if _, err := NewWorld(smallScenario(), func(*Node) Protocol { return nil }); err == nil {
		t.Error("nil protocol should be rejected")
	}
}

// TestWorldPositionsFollowModels: the world reads positions from a
// per-node segment table that it redraws only when the clock leaves a
// segment's window. Sampled every 0.37 s over a whole run, alongside
// the world's own reads (beacons, receptions, reindexing), every node's
// position must equal what a fresh copy of its model answers at that
// instant, for waypoint, random-walk and trace mobility.
func TestWorldPositionsFollowModels(t *testing.T) {
	waypoint := smallScenario()
	waypoint.SimTime = 300
	walk := waypoint
	walk.Mobility = MobilityRandomWalk
	walk.WalkLegTime = 3.3
	trace := waypoint
	trace.Mobility = MobilityTrace
	trace.Traces = make([][]mobility.TracePoint, trace.N)
	for i := range trace.Traces {
		for k := 0; k < 40; k++ {
			trace.Traces[i] = append(trace.Traces[i], mobility.TracePoint{
				T: float64(k) * (5.1 + float64(i)/7),
				P: geom.Pt(math.Mod(float64(37*i+113*k), trace.Region.W), math.Mod(float64(11*i+29*k), trace.Region.H)),
			})
		}
	}
	for _, s := range []Scenario{waypoint, walk, trace} {
		w, err := NewWorld(s, directFactory)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := w.buildMobility()
		if err != nil {
			t.Fatal(err)
		}
		samples := 0
		des.NewTicker(w.Scheduler(), 0.37, 0.01, func() {
			now := w.Scheduler().Now()
			for i := range fresh {
				seg := fresh[i].Segment(now)
				if got, want := w.Node(i).Pos(), seg.At(now); !got.Eq(want) {
					t.Fatalf("%v: node %d at t=%v is at %v, its model says %v", s.Mobility, i, now, got, want)
				}
			}
			samples++
		})
		w.Run()
		if samples < 800 {
			t.Fatalf("%v: only %d samples", s.Mobility, samples)
		}
	}
}

// rankProtocol records the rank of every message its node generates.
type rankProtocol struct {
	nopProtocol
	n     *Node
	ranks map[dtn.MessageID]int
}

func (p *rankProtocol) OnMessageGenerated(m *dtn.Message) {
	p.ranks[m.ID] = p.n.MessageRanks().Rank(m.ID)
}

// TestMessageRanksCoverGeneratedMessages: the world builds no rank table
// until a protocol asks for one, and the table ranks the messages the
// world actually generates densely in canonical (Src, Seq) order, also
// when traffic items are listed out of time order.
func TestMessageRanksCoverGeneratedMessages(t *testing.T) {
	s := smallScenario()
	s.Traffic = []TrafficItem{
		{Src: 2, Dst: 3, At: 9}, {Src: 0, Dst: 1, At: 5}, {Src: 2, Dst: 0, At: 1},
		{Src: 7, Dst: 1, At: 3}, {Src: 0, Dst: 4, At: 2}, {Src: 2, Dst: 5, At: 4},
	}
	ranks := make(map[dtn.MessageID]int)
	w, err := NewWorld(s, func(n *Node) Protocol { return &rankProtocol{n: n, ranks: ranks} })
	if err != nil {
		t.Fatal(err)
	}
	if w.ranks != nil {
		t.Fatal("NewWorld built the rank table before any protocol asked")
	}
	w.Run()
	want := []dtn.MessageID{{Src: 0, Seq: 0}, {Src: 0, Seq: 1}, {Src: 2, Seq: 0},
		{Src: 2, Seq: 1}, {Src: 2, Seq: 2}, {Src: 7, Seq: 0}}
	if len(ranks) != len(want) {
		t.Fatalf("generated %d messages, want %d", len(ranks), len(want))
	}
	for r, id := range want {
		if got, ok := ranks[id]; !ok || got != r {
			t.Errorf("rank of %v = %d (generated %v), want %d", id, got, ok, r)
		}
		if got := w.ranks.ID(r); got != id {
			t.Errorf("ID(%d) = %v, want %v", r, got, id)
		}
	}
}
