package core

import (
	"reflect"
	"testing"

	"glr/internal/dtn"
	"glr/internal/fault"
	"glr/internal/geom"
	"glr/internal/ldt"
	"glr/internal/metrics"
	"glr/internal/mobility"
	"glr/internal/sim"
)

// restartProbe counts the messages a node held when churn restarted it,
// so a churn world shows that Restart handed boxes back.
type restartProbe struct {
	*GLR
	held *int
}

func (r restartProbe) Restart() {
	*r.held += r.StorageUsed()
	r.GLR.Restart()
}

// poolRun is what a world run over one pool produced.
type poolRun struct {
	report  metrics.Report
	stats   []Stats
	spanner ldt.SpannerStats
	restart int // messages held by nodes at their churn restarts
}

// runOverPool runs s under cfg with every node drawing its boxes from
// pool.
func runOverPool(t *testing.T, s sim.Scenario, cfg Config, pool *boxPool) poolRun {
	t.Helper()
	factory, maint, err := newFactory(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	var out poolRun
	var nodes []*GLR
	w, err := sim.NewWorld(s, func(n *sim.Node) sim.Protocol {
		g := factory(n).(*GLR)
		nodes = append(nodes, g)
		return restartProbe{GLR: g, held: &out.restart}
	})
	if err != nil {
		t.Fatal(err)
	}
	out.report = w.Run()
	for _, g := range nodes {
		out.stats = append(out.stats, g.Stats())
	}
	out.spanner = maint.Stats()
	out.spanner.BuildTime = 0 // wall clock, not simulation state
	return out
}

// TestPoolOracle runs each world twice, over the reusing pool and over
// a pool that never reuses a box and poisons each one it gets back, and
// requires identical reports, per-node Stats and spanner activity. Any
// read of a message box or msgState after its release reads poison in
// the second run (or panics on it), so the runs part. Each world covers
// one way a box leaves custody: the ack (every custody world), eviction
// (a 5-message store), fire-and-forget sends (no custody), merges of
// copies from several trees (five copies), and churn restarts.
func TestPoolOracle(t *testing.T) {
	base := func(seed int64) sim.Scenario {
		s := sim.DefaultScenario(100)
		s.Seed = seed
		s.N = 40
		s.SimTime = 240
		s.Region = mobility.Region{W: 1200, H: 300}
		s.Traffic = sim.UniformTraffic(s.N, 120, 1, seed*977+3)
		return s
	}
	worlds := []struct {
		name  string
		world func() (sim.Scenario, Config)
		check func(t *testing.T, s sim.Scenario, r poolRun)
	}{
		{"waypoint", func() (sim.Scenario, Config) { return base(2), DefaultConfig() }, nil},
		{"static", func() (sim.Scenario, Config) {
			s := base(3)
			s.Mobility = sim.MobilityStatic
			return s, DefaultConfig()
		}, nil},
		{"storage5", func() (sim.Scenario, Config) {
			s := base(4)
			s.Range = 50
			s.StorageLimit = 5
			return s, DefaultConfig()
		}, func(t *testing.T, s sim.Scenario, r poolRun) {
			if r.report.MaxPeakStorage < s.StorageLimit {
				t.Errorf("peak storage %d never reached the %d-message limit: no eviction", r.report.MaxPeakStorage, s.StorageLimit)
			}
		}},
		{"copies5", func() (sim.Scenario, Config) {
			s := base(5)
			s.Range = 50
			cfg := DefaultConfig()
			cfg.Copies = 5
			return s, cfg
		}, nil},
		{"no-custody", func() (sim.Scenario, Config) {
			cfg := DefaultConfig()
			cfg.Custody = false
			return base(6), cfg
		}, func(t *testing.T, _ sim.Scenario, r poolRun) {
			if r.report.Acks != 0 {
				t.Errorf("no-custody world sent %d acks", r.report.Acks)
			}
		}},
		{"churn", func() (sim.Scenario, Config) {
			s := base(7)
			s.Faults = []fault.Spec{
				{Kind: fault.Churn, Rate: 0.02, Duration: 20},
				{Kind: fault.LinkBlackout, Rate: 0.1, Period: 10},
				{Kind: fault.GPSNoise, Sigma: 10},
			}
			return s, DefaultConfig()
		}, func(t *testing.T, _ sim.Scenario, r poolRun) {
			if r.restart == 0 {
				t.Error("no node held a message when churn restarted it")
			}
		}},
	}
	for _, tc := range worlds {
		t.Run(tc.name, func(t *testing.T) {
			s, cfg := tc.world()
			reuse := runOverPool(t, s, cfg, &boxPool{})
			poison := newPoisonPool()
			oracle := runOverPool(t, s, cfg, &poison.boxPool)
			if !reflect.DeepEqual(reuse.report, oracle.report) {
				t.Fatalf("reports differ:\n  reusing pool: %+v\n  poison pool:  %+v", reuse.report, oracle.report)
			}
			if !reflect.DeepEqual(reuse.stats, oracle.stats) {
				t.Fatal("per-node Stats differ between the reusing and the poison pool")
			}
			if reuse.spanner != oracle.spanner {
				t.Fatalf("spanner activity differs:\n  reusing pool: %+v\n  poison pool:  %+v", reuse.spanner, oracle.spanner)
			}
			if reuse.report.Delivered == 0 || poison.msgs == 0 || poison.states == 0 {
				t.Fatalf("world too idle to test the pool: %d delivered, %d boxes and %d states released",
					reuse.report.Delivered, poison.msgs, poison.states)
			}
			if tc.check != nil {
				tc.check(t, s, reuse)
			}
		})
	}
}

// TestWarmRelayCycleAllocatesNothing drives one relay through whole
// custody cycles on a static line 0 — 1 — 2 — 3 (80 m apart, 100 m
// range): node 1 receives a copy of node 0's message to node 3, its
// route check builds the spanner view and forwards greedily to node 2,
// node 2 acknowledges and relays to node 3, which acknowledges. Once the
// pools and tables are warm, a cycle allocates nothing.
func TestWarmRelayCycleAllocatesNothing(t *testing.T) {
	const gap = 80.0
	s := sim.DefaultScenario(100)
	s.N = 4
	s.SimTime = 1e6
	s.Region = mobility.Region{W: 4 * gap, H: 50}
	s.Mobility = sim.MobilityTrace
	s.Traces = make([][]mobility.TracePoint, s.N)
	for i := range s.Traces {
		s.Traces[i] = []mobility.TracePoint{{T: 0, P: geom.Pt(float64(i)*gap, 25)}}
	}
	s.Traffic = []sim.TrafficItem{{Src: 0, Dst: 3, At: 5}}
	w, nodes, _ := probedInstrumentedWorld(t, s, DefaultConfig())
	sched := w.Scheduler()
	sched.Run(30)
	if w.Collector().Report().Delivered != 1 {
		t.Fatal("the line world did not deliver its message")
	}

	relay := nodes[1]
	id := dtn.MessageID{Src: 0, Seq: 0}
	cycle := func() {
		f := relay.pool.take()
		f.Msg = dtn.Message{ID: id, Dst: 3, Created: 5, PayloadBits: 8000, Flags: dtn.FlagMax,
			DstLoc: geom.Pt(3*gap, 25), DstLocTime: sched.Now(), DstLocKnown: true}
		f.SenderPos, f.SentAt = geom.Pt(0, 25), sched.Now()
		relay.onData(f, 0)
		relay.pool.put(f)
		sched.Run(sched.Now() + 3*relay.cfg.CheckInterval)
	}
	for range 20 {
		cycle()
	}
	before := relay.Stats().GreedyForwards
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Errorf("a warm relay cycle allocates %v times, want 0", allocs)
	}
	if got := relay.Stats().GreedyForwards - before; got < runs {
		t.Fatalf("relay made %d greedy forwards in %d cycles: the cycle does not exercise the route check", got, runs)
	}
	for i, g := range nodes {
		if g.StorageUsed() != 0 {
			t.Fatalf("node %d still holds %d messages after a cycle: custody did not complete", i, g.StorageUsed())
		}
	}
}
