package sim

import (
	"testing"

	"glr/internal/geom"
	"glr/internal/mac"
	"glr/internal/mobility"
)

func validWalkScenario(n int) Scenario {
	s := DefaultScenario(200)
	s.N = n
	s.SimTime = 60
	s.Mobility = MobilityRandomWalk
	s.WalkLegTime = 10
	return s
}

func TestValidateRandomWalk(t *testing.T) {
	s := validWalkScenario(10)
	if err := s.Validate(); err != nil {
		t.Fatalf("valid random-walk scenario rejected: %v", err)
	}
	s.WalkLegTime = 0
	if err := s.Validate(); err == nil {
		t.Error("random walk without WalkLegTime accepted")
	}
}

func TestValidateTrace(t *testing.T) {
	s := DefaultScenario(200)
	s.N = 2
	s.SimTime = 60
	s.Mobility = MobilityTrace
	s.Traces = [][]mobility.TracePoint{
		{{T: 0, P: geom.Pt(10, 10)}, {T: 30, P: geom.Pt(100, 100)}},
		{{T: 0, P: geom.Pt(20, 20)}},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid trace scenario rejected: %v", err)
	}

	bad := s
	bad.Traces = s.Traces[:1]
	if err := bad.Validate(); err == nil {
		t.Error("trace count != N accepted")
	}

	bad = s
	bad.Traces = [][]mobility.TracePoint{s.Traces[0], {}}
	if err := bad.Validate(); err == nil {
		t.Error("empty trace accepted")
	}

	bad = s
	bad.Traces = [][]mobility.TracePoint{
		{{T: 0, P: geom.Pt(10, 10)}, {T: 0, P: geom.Pt(5, 5)}},
		s.Traces[1],
	}
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing trace times accepted")
	}

	bad = s
	bad.Traces = [][]mobility.TracePoint{
		{{T: 0, P: geom.Pt(-5, 10)}},
		s.Traces[1],
	}
	if err := bad.Validate(); err == nil {
		t.Error("trace outside region accepted")
	}

	bad = s
	bad.Mobility = MobilityKind(99)
	if err := bad.Validate(); err == nil {
		t.Error("unknown mobility kind accepted")
	}
}

func TestMobilityKindString(t *testing.T) {
	for kind, want := range map[MobilityKind]string{
		MobilityWaypoint:   "waypoint",
		MobilityStatic:     "static",
		MobilityRandomWalk: "randomwalk",
		MobilityTrace:      "trace",
	} {
		if got := kind.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(kind), got, want)
		}
	}
}

// TestWalkAndTraceWorldsRun drives both new mobility kinds end to end
// through NewWorld and checks node positions honour the model.
func TestWalkAndTraceWorldsRun(t *testing.T) {
	s := validWalkScenario(12)
	s.Traffic = UniformTraffic(s.N, 5, 1, 99)
	w, err := NewWorld(s, directFactory)
	if err != nil {
		t.Fatal(err)
	}
	rep := w.Run()
	if rep.Generated != 5 {
		t.Errorf("generated %d, want 5", rep.Generated)
	}

	ts := DefaultScenario(200)
	ts.N = 3
	ts.SimTime = 40
	ts.Mobility = MobilityTrace
	ts.Traces = [][]mobility.TracePoint{
		{{T: 0, P: geom.Pt(10, 10)}, {T: 40, P: geom.Pt(410, 10)}},
		{{T: 0, P: geom.Pt(100, 100)}},
		{{T: 0, P: geom.Pt(200, 200)}},
	}
	tw, err := NewWorld(ts, directFactory)
	if err != nil {
		t.Fatal(err)
	}
	tw.Scheduler().Run(20)
	// Node 0 interpolates linearly: at t=20 it is halfway along.
	pos := tw.Node(0).Pos()
	if pos.Dist(geom.Pt(210, 10)) > 1e-9 {
		t.Errorf("trace node at %v, want (210,10)", pos)
	}
	if p := tw.Node(1).Pos(); p != geom.Pt(100, 100) {
		t.Errorf("single-point trace node moved to %v", p)
	}
}

// TestFastTraceGridEquivalence is the regression test for over-speed
// traces: scripted segments are not bounded by MaxSpeed, so the radio
// index's staleness slack must derive from the fastest trace segment or
// the indexed medium silently misses receivers. A 400 m/s shuttle
// between pinned stations must produce reports identical to a full scan
// (an index slack spanning the whole region).
func TestFastTraceGridEquivalence(t *testing.T) {
	s := DefaultScenario(150)
	s.N = 6
	s.SimTime = 300
	s.Region = mobility.Region{W: 1500, H: 300}
	s.Mobility = MobilityTrace
	stations := [][2]float64{{80, 150}, {430, 150}, {780, 150}, {1130, 150}, {1480, 150}}
	s.Traces = make([][]mobility.TracePoint, s.N)
	for i, st := range stations {
		s.Traces[i] = []mobility.TracePoint{{T: 0, P: geom.Pt(st[0], st[1])}}
	}
	// The shuttle bounces across the whole strip nonstop at
	// ~370 m/s — far beyond the 20 m/s the default MaxSpeed-based
	// slack assumed.
	var shuttle []mobility.TracePoint
	for k := 0; float64(k)*4 <= s.SimTime+4; k++ {
		x := 10.0
		if k%2 == 1 {
			x = 1490
		}
		shuttle = append(shuttle, mobility.TracePoint{T: float64(k) * 4, P: geom.Pt(x, 160)})
	}
	s.Traces[5] = shuttle
	s.Traffic = UniformTraffic(s.N, 150, 1, 5)
	run := func(macCfg mac.Config) any {
		w, err := newWorld(s, directFactory, macCfg)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run()
	}
	indexed := run(s.macConfig())
	full := run(fullScanMAC(s))
	if indexed != full {
		t.Errorf("indexed medium diverged from the full scan on a fast trace:\nindexed: %+v\nfull:    %+v", indexed, full)
	}
}

func TestPoissonTraffic(t *testing.T) {
	items := PoissonTraffic(20, 50, 2.0, 7)
	if len(items) != 50 {
		t.Fatalf("got %d items, want 50", len(items))
	}
	prev := 0.0
	for i, ti := range items {
		if ti.At <= prev {
			t.Fatalf("item %d at %v not after %v", i, ti.At, prev)
		}
		if ti.Src == ti.Dst || ti.Src < 0 || ti.Src >= 20 || ti.Dst < 0 || ti.Dst >= 20 {
			t.Fatalf("item %d endpoints invalid: %d→%d", i, ti.Src, ti.Dst)
		}
		prev = ti.At
	}
	// Mean inter-arrival should be near 1/rate.
	mean := items[len(items)-1].At / float64(len(items))
	if mean < 0.2 || mean > 1.5 {
		t.Errorf("mean inter-arrival %v wildly off 0.5", mean)
	}
	again := PoissonTraffic(20, 50, 2.0, 7)
	for i := range items {
		if items[i] != again[i] {
			t.Fatal("PoissonTraffic not deterministic")
		}
	}
}

func TestHotspotTraffic(t *testing.T) {
	items := HotspotTraffic(20, 40, 3, 2.0, 11)
	if len(items) != 40 {
		t.Fatalf("got %d items, want 40", len(items))
	}
	for i, ti := range items {
		if ti.Dst < 0 || ti.Dst >= 3 {
			t.Fatalf("item %d destination %d outside sink set", i, ti.Dst)
		}
		if ti.Src < 3 || ti.Src >= 20 {
			t.Fatalf("item %d source %d overlaps sinks", i, ti.Src)
		}
		if ti.At != float64(i)/2.0 {
			t.Fatalf("item %d at %v, want %v", i, ti.At, float64(i)/2.0)
		}
	}
	// The extreme valid shape — every node but one is a sink — still
	// yields well-formed schedules.
	edge := HotspotTraffic(5, 10, 4, 1.0, 1)
	for i, ti := range edge {
		if ti.Src != 4 || ti.Dst < 0 || ti.Dst >= 4 {
			t.Fatalf("edge item %d malformed: %d→%d", i, ti.Src, ti.Dst)
		}
	}
}
